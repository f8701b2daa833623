package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"

	"ballarus/internal/dynpred"
	"ballarus/internal/profile"
	"ballarus/internal/service"
)

// rateWire is blserve's JSON form of a miss/perfect rate.
type rateWire struct {
	MissPct    float64 `json:"miss_pct"`
	PerfectPct float64 `json:"perfect_pct"`
	Dynamic    int64   `json:"dynamic"`
	Display    string  `json:"display"`
}

func toRateWire(r profile.Rate) rateWire {
	return rateWire{MissPct: r.Pred, PerfectPct: r.Perfect, Dynamic: r.Dyn, Display: r.String()}
}

// predictAnswer holds the fields of a /v1/predict answer that the
// request determines; cache flags and timings are left out.
type predictAnswer struct {
	Name            string   `json:"name"`
	StaticBranches  int      `json:"static_branches"`
	DynamicBranches int64    `json:"dynamic_branches"`
	Steps           int64    `json:"steps"`
	ExitCode        int64    `json:"exit_code"`
	Heuristic       rateWire `json:"heuristic"`
	Vote            rateWire `json:"vote"`
	LoopRand        rateWire `json:"loop_rand"`
	BTFNT           rateWire `json:"btfnt"`
}

// compareAnswer is the same for /v1/compare.
type compareAnswer struct {
	Name            string                   `json:"name"`
	StaticBranches  int                      `json:"static_branches"`
	DynamicBranches int64                    `json:"dynamic_branches"`
	Steps           int64                    `json:"steps"`
	Predictors      []service.PredictorScore `json:"predictors"`
	H2P             dynpred.H2P              `json:"h2p"`
}

// answer is one decoded response. Degraded marks a stale result the
// gateway or replica served instead of computing it.
type answer struct {
	Predict  *predictAnswer `json:"predict,omitempty"`
	Compare  *compareAnswer `json:"compare,omitempty"`
	Degraded bool           `json:"degraded,omitempty"`
}

// decodeAnswer parses a 200 response body.
func decodeAnswer(r *request, body []byte) (answer, error) {
	if r.Item.Compare {
		var a struct {
			compareAnswer
			Degraded bool `json:"degraded"`
		}
		err := json.Unmarshal(body, &a)
		return answer{Compare: &a.compareAnswer, Degraded: a.Degraded}, err
	}
	var a struct {
		predictAnswer
		Degraded bool `json:"degraded"`
	}
	err := json.Unmarshal(body, &a)
	return answer{Predict: &a.predictAnswer, Degraded: a.Degraded}, err
}

// seen is every answer to one distinct request.
type seen struct {
	req     *request
	first   answer
	refDiff bool // the first answer differs from the in-process reference
}

// verifier checks every response: on arrival, that it is a 200 with a
// well-formed, undegraded answer equal to any earlier answer to the
// same request; after the run, that each distinct request's answer
// equals the in-process pipeline's.
type verifier struct {
	mu   sync.Mutex
	seen map[string]*seen
}

func newVerifier() *verifier { return &verifier{seen: map[string]*seen{}} }

// check returns the request's entry and whether the response passed.
func (v *verifier) check(r *request, status int, body []byte) (*seen, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: http %d: %.200s", r.Path, status, body)
	}
	ans, err := decodeAnswer(r, body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Path, err)
	}
	if ans.Degraded {
		return nil, fmt.Errorf("%s: degraded answer", r.Path)
	}
	key := r.Path + string(r.Body)
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.seen[key]
	if e == nil {
		e = &seen{req: r, first: ans}
		v.seen[key] = e
	} else if !reflect.DeepEqual(e.first, ans) {
		return nil, fmt.Errorf("%s: two different answers to %s", r.Path, r.Body)
	}
	return e, nil
}

// finish recomputes each distinct request with svc, using workers
// goroutines, marks the entries whose answer differs, and returns how
// many there are.
func (v *verifier) finish(svc *service.Service, workers int) (wrong int, err error) {
	v.mu.Lock()
	entries := make([]*seen, 0, len(v.seen))
	for _, e := range v.seen {
		entries = append(entries, e)
	}
	v.mu.Unlock()
	err = service.Fan(context.Background(), workers, len(entries), func(ctx context.Context, i int) error {
		e := entries[i]
		ref, err := reference(ctx, svc, e.req.Item)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", e.req.Body, err)
		}
		e.refDiff = !reflect.DeepEqual(ref, e.first)
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e.refDiff {
			if wrong++; wrong <= 3 {
				logf("wrong answer: %s %s differs from the in-process pipeline", e.req.Path, e.req.Body)
			}
		}
	}
	return wrong, nil
}

// reference computes one item in-process, in the shape of its answer
// after a trip through JSON, so empty and absent lists compare equal.
func reference(ctx context.Context, svc *service.Service, it item) (answer, error) {
	a, err := computeReference(ctx, svc, it)
	if err != nil {
		return answer{}, err
	}
	b, err := json.Marshal(a)
	if err != nil {
		return answer{}, err
	}
	var out answer
	err = json.Unmarshal(b, &out)
	return out, err
}

func computeReference(ctx context.Context, svc *service.Service, it item) (answer, error) {
	req := service.Request{Benchmark: it.Benchmark, Dataset: it.Dataset}
	if it.Compare {
		res, err := svc.Compare(ctx, service.CompareRequest{Request: req})
		if err != nil {
			return answer{}, err
		}
		scores := make([]service.PredictorScore, len(res.Predictors))
		copy(scores, res.Predictors)
		for i := range scores {
			scores[i].PerBranch = nil
		}
		return answer{Compare: &compareAnswer{Name: res.Name, StaticBranches: res.StaticBranches,
			DynamicBranches: res.DynamicBranches, Steps: res.Steps, Predictors: scores, H2P: res.H2P}}, nil
	}
	res, err := svc.Predict(ctx, req)
	if err != nil {
		return answer{}, err
	}
	return answer{Predict: &predictAnswer{Name: res.Name, StaticBranches: res.StaticBranches,
		DynamicBranches: res.DynamicBranches, Steps: res.Steps, ExitCode: res.ExitCode,
		Heuristic: toRateWire(res.Heuristic), Vote: toRateWire(res.Vote),
		LoopRand: toRateWire(res.LoopRand), BTFNT: toRateWire(res.BTFNT)}}, nil
}
