package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/eval"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
	"ballarus/internal/mir"
	"ballarus/internal/obs"
	"ballarus/internal/orders"
	"ballarus/internal/service"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// The ledger times the benchmark's own calls into each module's public
// functions, in this process, one module at a time. Each figure is a
// median over ledgerReps repetitions unless it is a count or takes
// seconds on its own (orders.subsets_ms, eval.*).
const ledgerReps = 3

// allocs counts the heap allocations and bytes fn makes.
func allocs(fn func()) (n, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

type compiled struct {
	b    *suite.Benchmark
	prog *mir.Program
	an   *core.Analysis
}

// ledgerFrontEnd times minic.Compile and core.Analyze over the 23
// suite sources.
func ledgerFrontEnd(m *metrics, rec *recorder) ([]compiled, error) {
	benches := suite.All()
	cs := make([]compiled, len(benches))
	var err error
	compileAll := func() {
		for i, b := range benches {
			t0 := time.Now()
			p, cerr := minic.Compile(b.Source, minic.Options{})
			rec.record("minic.Compile", 0, 0, t0, time.Now())
			if cerr != nil && err == nil {
				err = fmt.Errorf("compile %s: %w", b.Name, cerr)
			}
			cs[i] = compiled{b: b, prog: p}
		}
	}
	analyzeAll := func() {
		for i := range cs {
			t0 := time.Now()
			a, aerr := core.Analyze(cs[i].prog, core.Options{})
			rec.record("core.Analyze", 0, 0, t0, time.Now())
			if aerr != nil && err == nil {
				err = fmt.Errorf("analyze %s: %w", cs[i].b.Name, aerr)
			}
			cs[i].an = a
		}
	}
	n, _ := allocs(compileAll)
	if err != nil {
		return nil, err
	}
	m.set("minic.compile_allocs", "count", float64(n))
	m.set("minic.compile_us", "us", medianOf(ledgerReps, func() float64 { return us(timed(compileAll)) }))
	m.set("core.analyze_us", "us", medianOf(ledgerReps, func() float64 { return us(timed(analyzeAll)) }))
	return cs, err
}

// ledgerInterp times interp.Run: streaming every suite pair through a
// counting OnEvent, and materializing the event trace of the programs
// Graphs 4-11 use. It returns the materialized traces by benchmark.
func ledgerInterp(m *metrics, rec *recorder, cs []compiled) (map[string]*interp.Result, error) {
	var err error
	var steps int64
	runs := 0
	stream := func() {
		steps, runs = 0, 0
		for _, c := range cs {
			for _, ds := range c.b.Data {
				events := 0
				t0 := time.Now()
				res, rerr := interp.Run(c.prog, interp.Config{Input: ds.Input, Budget: c.b.Budget, OnEvent: func(interp.Event) { events++ }})
				rec.record("interp.Run", 0, 0, t0, time.Now())
				if rerr != nil && err == nil {
					err = fmt.Errorf("run %s/%s: %w", c.b.Name, ds.Name, rerr)
				}
				if res != nil {
					steps += res.Steps
				}
				runs++
			}
		}
	}
	n, bytes := allocs(stream)
	if err != nil {
		return nil, err
	}
	m.set("interp.allocs_per_run", "count", float64(n)/float64(runs))
	m.set("interp.bytes_per_run", "B", float64(bytes)/float64(runs))
	m.set("interp.minstr_per_s", "Minstr/s", medianOf(ledgerReps, func() float64 {
		return float64(steps) / 1e6 / timed(stream).Seconds()
	}))

	traced := map[string]*interp.Result{}
	collect := func() {
		for _, c := range cs {
			if !c.b.Traced {
				continue
			}
			t0 := time.Now()
			res, rerr := interp.Run(c.prog, interp.Config{Input: c.b.Data[0].Input, Budget: c.b.Budget, CollectEvents: true})
			rec.record("interp.Run", 0, 0, t0, time.Now())
			if rerr != nil && err == nil {
				err = fmt.Errorf("run %s: %w", c.b.Name, rerr)
			}
			traced[c.b.Name] = res
		}
	}
	m.set("interp.collect_events_ms", "ms", medianOf(ledgerReps, func() float64 { return ms(timed(collect)) }))
	return traced, err
}

// ledgerTrace times trace.Sequences for the three predictors Graphs
// 4-11 plot, over each traced program.
func ledgerTrace(m *metrics, rec *recorder, cs []compiled, traced map[string]*interp.Result) {
	m.set("trace.sequences_ms", "ms", medianOf(ledgerReps, func() float64 {
		return ms(timed(func() {
			for _, c := range cs {
				r := traced[c.b.Name]
				if r == nil {
					continue
				}
				for _, v := range []trace.Vector{
					trace.PredictionVector(c.an.LoopRandPredictions()),
					trace.PredictionVector(c.an.Predictions(core.DefaultOrder)),
					trace.PerfectVector(r.Profile),
				} {
					t0 := time.Now()
					trace.Sequences(r.Events, r.TailLen, v)
					rec.record("trace.Sequences", 0, 0, t0, time.Now())
				}
			}
		}))
	}))
}

// ledgerDynpred times each registered predictor's Predict+Update over
// eqntott's trace, the timing benchmark of the predictor snapshot.
func ledgerDynpred(m *metrics, rec *recorder, cs []compiled) error {
	var c compiled
	for _, x := range cs {
		if x.b.Name == "eqntott" {
			c = x
		}
	}
	res, err := interp.Run(c.prog, interp.Config{Input: c.b.Data[0].Input, Budget: c.b.Budget, CollectEvents: true})
	if err != nil {
		return fmt.Errorf("run eqntott: %w", err)
	}
	n := res.Profile.Set.Len()
	branches := 0
	for _, ev := range res.Events {
		if ev.Kind == interp.EvBranch {
			branches++
		}
	}
	for _, name := range dynpred.Names() {
		replay := func() {
			t0 := time.Now()
			p, perr := dynpred.New(name, n)
			if perr != nil {
				err = perr
				return
			}
			dynpred.Replay(res.Events, n, p)
			rec.record("dynpred.Replay", 0, 0, t0, time.Now())
		}
		a, _ := allocs(replay)
		if err != nil {
			return err
		}
		m.set("dynpred."+name+".allocs_per_run", "count", float64(a))
		m.set("dynpred."+name+".ns_per_event", "ns", medianOf(5, func() float64 {
			return float64(timed(replay).Nanoseconds()) / float64(branches)
		}))
	}
	return nil
}

// ledgerPaper times the orders experiments and eval's rendering of
// every table and graph summary on an evaluator whose runs are already
// cached, so each figure is the module's own work.
func ledgerPaper(m *metrics, rec *recorder) error {
	ctx := context.Background()
	e := eval.New()
	for _, b := range suite.All() {
		for ds := range b.Data {
			if _, err := e.Run(b, ds, false); err != nil {
				return err
			}
		}
		if _, err := e.Run(b, 0, true); err != nil {
			return err
		}
	}
	bd, err := e.BenchData(ctx)
	if err != nil {
		return err
	}
	var sw *orders.Sweep
	m.set("orders.sweep_ms", "ms", medianOf(ledgerReps, func() float64 {
		return ms(timed(func() {
			t0 := time.Now()
			sw, err = orders.NewSweepCtx(ctx, bd)
			rec.record("orders.NewSweep", 0, 0, t0, time.Now())
		}))
	}))
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := sw.SubsetsCtx(ctx, 11); err != nil {
		return err
	}
	t1 := time.Now()
	rec.record("orders.Subsets", 0, 0, t0, t1)
	m.set("orders.subsets_ms", "ms", ms(t1.Sub(t0)))

	if _, err := e.SweepCtx(ctx); err != nil { // cache the sweep Table 4 and Graph 1 share
		return err
	}
	tables := []func() (string, error){e.Table1, e.Table2, e.Table3,
		func() (string, error) { return e.Table4(20000) }, e.Table5, e.Table6, e.Table7,
		e.FreqTable, e.CrossProfileTable, e.DynPredTable, e.AblationTable}
	m.set("eval.tables_ms", "ms", ms(timed(func() {
		for _, gen := range tables {
			t0 := time.Now()
			if _, gerr := gen(); gerr != nil {
				err = gerr
			}
			rec.record("eval.Table", 0, 0, t0, time.Now())
		}
	})))
	if err != nil {
		return err
	}
	graphs := []func() (*eval.Graph, error){e.Graph1,
		func() (*eval.Graph, error) { return e.Graph2(20000) },
		func() (*eval.Graph, error) { return e.Graph3(20000) }}
	for n := 4; n <= 11; n++ {
		n := n
		graphs = append(graphs, func() (*eval.Graph, error) { return e.GraphSeq(n) })
	}
	graphs = append(graphs, func() (*eval.Graph, error) { return e.Graph12(), nil }, e.Graph13)
	m.set("eval.graphs_ms", "ms", ms(timed(func() {
		for _, gen := range graphs {
			t0 := time.Now()
			g, gerr := gen()
			if gerr != nil {
				err = gerr
				continue
			}
			g.Summary()
			rec.record("eval.Graph", 0, 0, t0, time.Now())
		}
	})))
	return err
}

// ledgerService times service.Service in this process: cache hits and
// misses of Predict, hits of Compare, warm Batch throughput, and the
// cost of a live obs trace around a hit.
func ledgerService(m *metrics, rec *recorder) error {
	ctx := context.Background()
	svc := service.New()
	defer svc.Close()
	tracer := obs.NewTracer(256, nil)
	svcT := service.New(service.WithTracer(tracer))
	defer svcT.Close()
	pairs := suitePairs()
	reqFor := func(i int) service.Request {
		p := pairs[i%len(pairs)]
		return service.Request{Benchmark: p.Bench, Dataset: p.Dataset}
	}
	for i := range pairs {
		for _, s := range []*service.Service{svc, svcT} {
			if _, err := s.Predict(ctx, reqFor(i)); err != nil {
				return err
			}
		}
		if _, err := svc.Compare(ctx, service.CompareRequest{Request: reqFor(i)}); err != nil {
			return err
		}
	}

	const hits = 3000
	var err error
	perCall := func(name string, n int, call func(i int) error) (medUs float64, allocsPerCall float64) {
		lat := make([]float64, n)
		a, _ := allocs(func() {
			_, end := rec.start(name, 0, 0)
			for i := range lat {
				t0 := time.Now()
				if cerr := call(i); cerr != nil && err == nil {
					err = cerr
				}
				lat[i] = us(time.Since(t0))
			}
			end()
		})
		return median(lat), float64(a) / float64(n)
	}
	hitUs, hitAllocs := perCall("service.Predict", hits, func(i int) error {
		_, err := svc.Predict(ctx, reqFor(i))
		return err
	})
	tracedUs, tracedAllocs := perCall("service.Predict", hits, func(i int) error {
		tctx, act := tracer.Start(ctx, "bench")
		_, err := svcT.Predict(tctx, reqFor(i))
		act.End(err)
		return err
	})
	compareUs, _ := perCall("service.Compare", hits, func(i int) error {
		_, err := svc.Compare(ctx, service.CompareRequest{Request: reqFor(i)})
		return err
	})
	seed := int64(1 << 41) // a fresh interpreter seed per call: every run misses
	missUs, _ := perCall("service.Predict", 23, func(i int) error {
		r := reqFor(i * 3)
		seed++
		r.Seed = seed
		_, err := svc.Predict(ctx, r)
		return err
	})
	if err != nil {
		return err
	}
	m.set("service.predict_hit_us", "us", hitUs)
	m.set("service.predict_hit_allocs", "count", hitAllocs)
	m.set("service.compare_hit_us", "us", compareUs)
	m.set("service.predict_miss_ms", "ms", missUs/1000)
	m.set("obs.trace_overhead_us", "us", tracedUs-hitUs)
	m.set("obs.trace_allocs", "count", tracedAllocs-hitAllocs)

	// The batch figures of the batch snapshot: 16 items over 4 distinct
	// small sources, every result cached.
	const items, distinct, batches = 16, 4, 300
	batch := make([]service.BatchItem, items)
	for i := range batch {
		req := service.Request{Source: fmt.Sprintf(
			"int main() { int i; int s = %d; for (i = 0; i < 400; i++) { if (i %% 5 == 0) { s += i; } else { s -= 1; } } printi(s); return 0; }",
			i%distinct)}
		batch[i].Predict = &req
	}
	if out, err := svc.Batch(ctx, batch); err != nil || out.Failed > 0 {
		return fmt.Errorf("batch priming: %v", err)
	}
	var elapsed time.Duration
	a, _ := allocs(func() {
		_, end := rec.start("service.Batch", 0, 0)
		elapsed = timed(func() {
			for i := 0; i < batches; i++ {
				if _, berr := svc.Batch(ctx, batch); berr != nil && err == nil {
					err = berr
				}
			}
		})
		end()
	})
	m.set("service.batch_items_per_s", "1/s", float64(items*batches)/elapsed.Seconds())
	m.set("service.batch_allocs_per_item", "count", float64(a)/float64(items*batches))
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
