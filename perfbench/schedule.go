package main

import (
	"encoding/json"
	"math/rand"

	"ballarus/internal/suite"
)

// pair is one (suite benchmark, dataset) input; the suite has 69.
type pair struct {
	Bench   string
	Dataset int
}

func suitePairs() []pair {
	var ps []pair
	for _, b := range suite.All() {
		for d := range b.Data {
			ps = append(ps, pair{b.Name, d})
		}
	}
	return ps
}

// item is one predict or compare job, in blserve's wire format. The
// benchmark sends it to a server and recomputes it in-process to check
// the answer.
type item struct {
	Compare   bool   `json:"-"`
	Benchmark string `json:"benchmark"`
	Dataset   int    `json:"dataset,omitempty"`
}

// request is one generated API call.
type request struct {
	Item item
	Path string
	Body []byte
}

func newRequest(it item) request {
	r := request{Item: it, Path: "/v1/predict"}
	if it.Compare {
		r.Path = "/v1/compare"
	}
	body, err := json.Marshal(it)
	if err != nil {
		panic(err) // a plain struct of a string and an int always marshals
	}
	r.Body = body
	return r
}

// warmSet is every suite pair as a predict and as a compare: the
// requests the set-up sends to fill the caches, in suite order, and
// serve-warm's traffic.
func warmSet() []request {
	var rs []request
	for _, p := range suitePairs() {
		rs = append(rs, newRequest(item{Benchmark: p.Bench, Dataset: p.Dataset}))
		rs = append(rs, newRequest(item{Compare: true, Benchmark: p.Bench, Dataset: p.Dataset}))
	}
	return rs
}

// deck deals 0..n-1 in shuffled order, reshuffling once dealt out.
type deck struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (d *deck) next() int {
	if len(d.perm) == 0 {
		d.perm = d.rng.Perm(d.n)
	}
	i := d.perm[0]
	d.perm = d.perm[1:]
	return i
}

// closedOrder is one closed-loop client's request order: the warm set
// reshuffled on each pass, from a source seeded by the run seed and the
// client number.
type closedOrder struct {
	deck deck
	set  []request
}

func newClosedOrder(seed int64, client int, set []request) *closedOrder {
	return &closedOrder{deck{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), n: len(set)}, set}
}

func (o *closedOrder) next() *request { return &o.set[o.deck.next()] }
