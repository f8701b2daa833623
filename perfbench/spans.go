package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans of one request share Req; Parent links a call to the
// call that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the traced run and writes them out
// once, at exit. A nil *recorder records nothing, so the untraced run
// pays one nil check per call.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span; the returned function closes it and returns the
// span's ID so children can name it as their parent before it closes.
func (r *recorder) start(name string, parent, req uint64) (id uint64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	id = r.next.Add(1)
	t0 := time.Since(r.epoch)
	return id, func() {
		s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(t0), End: int64(time.Since(r.epoch))}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// record adds a span whose start was taken by the caller, for calls
// already timed for a metric.
func (r *recorder) record(name string, parent, req uint64, t0, t1 time.Time) {
	if r == nil {
		return
	}
	s := span{ID: r.next.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer (the span name up to its first '.'), the
// spans' durations and their self time: the duration minus the part
// of it that child spans cover.
func (r *recorder) selfTimes() (layers []string, total, self map[string]time.Duration, count map[string]int) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		d := time.Duration(s.End - s.Start)
		total[layer] += d
		self[layer] += d - covered(s, children[s.ID])
		count[layer]++
	}
	for l := range total {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	return layers, total, self, count
}

// covered returns how much of parent's interval the union of kids
// covers; concurrent children overlap, so their durations are not
// simply summed.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, end int64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return time.Duration(sum)
}

// printSelfTimes writes the per-layer split of the traced run.
func (r *recorder) printSelfTimes(w *os.File) {
	layers, total, self, count := r.selfTimes()
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, l := range layers {
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f\n", l, count[l], ms(total[l]), ms(self[l]))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
