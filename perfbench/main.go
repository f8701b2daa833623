// Command perfbench is the repository's benchmark. It regenerates the
// paper's results with the bl* commands exactly as a user does, and
// drives the real blgate → blserve stack over HTTP, checking every
// answer against the in-process pipeline.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 40 --trace 0
//
// Workloads:
//
//	reproduce    the four commands docs/RESULTS.txt names, cold, in
//	             sequence; output checked against the document
//	serve-warm   closed loop, 2 clients → blgate → 2 blserve -tenants,
//	             /v1/predict and /v1/compare over the 69 suite pairs,
//	             all cache hits
//
// BENCHMARK.json lists them, with the reason for each. reproduce makes
// a fixed number of regenerations, whatever --seconds says (22–42 s on
// a 2-vCPU machine, depending on what else loads it), so its p99 is the
// slowest of the same number of samples in every run.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the same run repeats its
// measured phase with spans recorded around each of the benchmark's own
// calls, then times each module in-process (the layer ledger), and
// reports the per-layer metrics. Spans go to
// .bench_build/spans-<workload>-<seed>.jsonl. A table of every metric
// with its unit goes to standard error.
//
// End-to-end metrics, per workload. An operation is one regeneration
// for reproduce and one HTTP request for the serve workloads.
//
//	setup_s        median of setupRuns set-ups: build (the go command
//	               finds the binaries up to date), then for serve start
//	               the servers, wait until ready and warm every cache,
//	               and for reproduce run each command once, cold, on its
//	               smallest job (firstRuns)
//	wall_s         reproduce: median regeneration time; serve: the
//	               measured phase, first send to last answer
//	throughput_rps correct operations per second of the measured phase
//	p50_ms, p99_ms operation latency; p99 needs 10 samples beyond it.
//	               reproduce has too few operations for a p99 and
//	               reports its slowest regeneration. The serve
//	               workloads report throughput and latency as medians
//	               over the phase's quarters (see serveMetrics)
//	slo_ok_pct     share of operations attempted that were correct
//	               within the workload's latency limit
//	cpu_ms_per_op  user+system CPU of the launched program processes
//	               per correct operation
//	peak_rss_mb    their peak resident sets, summed
//	ok_pct         share of operations attempted that were correct: not
//	               failed, refused, degraded or wrong (100 - error %).
//	               Any incorrect operation also makes the run incorrect
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ballarus/internal/dynpred"
	"ballarus/internal/service"
)

const (
	// setupRuns is how many times a run sets up its workload; setup_s
	// is their median.
	setupRuns = 3
	// regenerations is how many times reproduce regenerates the results.
	regenerations = 3
	// Latency limits for slo_ok_pct.
	serveLimit     = 100 * time.Millisecond
	reproduceLimit = 60 * time.Second
	// probeSeconds is the length of the serving phase the reproduce
	// workload's traced run adds to measure the serving layers.
	probeSeconds = 3
	// windows is how many equal spans serveMetrics splits a phase into.
	windows = 4
	// tracedSeconds caps serve-warm's traced phase, which only yields the
	// tracing overhead on p50.
	tracedSeconds = 5
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps reported numbers in the order they were set.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name, unit string, v float64) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{v, unit}
}

// outcome is what a workload reports.
type outcome struct {
	e2e, layer        *metrics
	attempted, failed int64
	errs              []string // correctness failures
}

type config struct {
	seed    int64
	seconds float64
	rec     *recorder // nil unless --trace 1
	doc     string    // docs/RESULTS.txt
}

var workloads = map[string]func(config, *outcome) error{
	"reproduce":  runReproduce,
	"serve-warm": runServe,
}

func main() {
	code := run()
	stopAll()
	os.Exit(code)
}

func run() int {
	workload := flag.String("workload", "", "reproduce or serve-warm")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured phase")
	traceOn := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		flag.Usage()
		return 2
	}
	// Run from the repository root: the stack is built from its source.
	doc, err := os.ReadFile(filepath.Join("docs", "RESULTS.txt"))
	if err != nil {
		logf("not at the repository root: %v", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "logs"), 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	cfg := config{seed: *seed, seconds: *seconds, doc: string(doc)}
	if *traceOn == 1 {
		cfg.rec = newRecorder()
	}
	o := &outcome{e2e: newMetrics(), layer: newMetrics()}
	if err := fn(cfg, o); err != nil {
		logf("%s: %v", *workload, err)
		return 1
	}
	if cfg.rec != nil {
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := cfg.rec.write(path); err != nil {
			logf("write spans: %v", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "\nspans by layer (%s):\n", path)
		cfg.rec.printSelfTimes(os.Stderr)
	}
	for _, e := range o.errs {
		logf("INCORRECT: %s", e)
	}
	reported := o.e2e
	if cfg.rec != nil {
		reported = o.layer
	}
	printTable(o)
	for _, name := range reported.names {
		if v := reported.m[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			logf("metric %s is %v", name, v)
			return 1
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.errs) == 0, o.attempted, o.failed, reported.m})
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printTable writes every metric the run measured, with its unit, to
// standard error. In a traced run the end-to-end rows are the run's
// untraced phase.
func printTable(o *outcome) {
	for _, sec := range []struct {
		title string
		m     *metrics
	}{{"end-to-end", o.e2e}, {"per-layer", o.layer}} {
		if len(sec.m.names) == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "\n%s:\n", sec.title)
		for _, n := range sec.m.names {
			fmt.Fprintf(os.Stderr, "  %-36s %16.4f %s\n", n, sec.m.m[n].Value, sec.m.m[n].Unit)
		}
	}
	fmt.Fprintf(os.Stderr, "\nattempted %d, failed %d (error %.3f%%)\n",
		o.attempted, o.failed, 100*float64(o.failed)/math.Max(1, float64(o.attempted)))
}

// setupTimes runs setup setupRuns times and returns the median time.
// between, when not nil, runs untimed before each set-up but the first,
// to tear the previous one down.
func setupTimes(setup func() error, between func()) (float64, error) {
	xs := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 && between != nil {
			between()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

func runReproduce(cfg config, o *outcome) error {
	setup, err := setupTimes(func() error { return setUpReproduce(cfg.doc) }, nil)
	if err != nil {
		return err
	}
	// The reference for the stale table comes first: a failure of the
	// program's own pipeline should not cost a full regeneration.
	totals, err := suiteReplay()
	if err != nil {
		return err
	}
	ref := &totals.table
	var gs []regen
	for len(gs) < regenerations {
		g, err := regenerate(nil, 0)
		if err != nil {
			return err
		}
		gs = append(gs, g)
	}
	var walls, cpus, rss []float64
	ok, inLimit := 0, 0
	for _, g := range gs {
		if err := checkRegeneration(g.out, cfg.doc, ref); err != nil {
			o.errs = append(o.errs, err.Error())
		} else {
			ok++
			if g.wall <= reproduceLimit {
				inLimit++
			}
		}
		walls = append(walls, g.wall.Seconds())
		cpus = append(cpus, ms(g.cpu))
		rss = append(rss, g.rssMB)
	}
	logf("finding: docs/RESULTS.txt's %q lacks the %v columns the program prints; they were checked against the in-process replay and its suite totals", staleTitle, dynCols)
	o.attempted, o.failed = int64(len(gs)), int64(len(gs)-ok)
	total := 0.0
	for _, w := range walls {
		total += w
	}
	wall := median(walls)
	m := o.e2e
	m.set("setup_s", "s", setup)
	m.set("wall_s", "s", wall)
	m.set("throughput_rps", "1/s", float64(ok)/total)
	m.set("p50_ms", "ms", 1000*wall)
	m.set("p99_ms", "ms", 1000*sortedCopy(walls)[len(walls)-1])
	m.set("slo_ok_pct", "%", 100*float64(inLimit)/float64(len(gs)))
	m.set("cpu_ms_per_op", "ms", median(cpus))
	m.set("peak_rss_mb", "MB", median(rss))
	m.set("ok_pct", "%", 100*float64(ok)/float64(len(gs)))
	logf("reproduce: %d regeneration(s), wall %v", len(gs), walls)
	if cfg.rec == nil {
		return nil
	}

	// One traced regeneration, compared with the untraced median.
	traced, err := regenerate(cfg.rec, uint64(len(gs))+1)
	if err != nil {
		return err
	}
	if err := checkRegeneration(traced.out, cfg.doc, ref); err != nil {
		o.errs = append(o.errs, err.Error())
	}
	o.layer.set("bench.trace_overhead_pct", "%", 100*(traced.wall.Seconds()-wall)/wall)

	// The serving layers: one set-up of the stack and a short
	// serve-warm phase.
	v := newVerifier()
	var warm, meas phaseCount
	d, err := deploy(v, &warm)
	if err != nil {
		return err
	}
	res, snap, err := measurePhase(d, func() loadResult {
		return closedLoop(d.gw, cfg.seed, warmSet(), probeSeconds*time.Second, v, &meas, nil)
	})
	if err != nil {
		d.stop()
		return err
	}
	return serveLedger(cfg, o, d, v, res, snap, &warm, &meas, nil)
}

// snapshot is what measurePhase reads from the servers around a phase.
type snapshot struct {
	ctr                 counters
	gateCPU, replicaCPU time.Duration
	rssMB               float64
}

// measurePhase runs one load phase and returns the servers' counter and
// CPU deltas over it, and their peak RSS after it.
func measurePhase(d *deployment, phase func() loadResult) (loadResult, snapshot, error) {
	var s snapshot
	c0, err := d.counters()
	if err != nil {
		return loadResult{}, s, err
	}
	g0, r0, err := d.cpu()
	if err != nil {
		return loadResult{}, s, err
	}
	res := phase()
	c1, err := d.counters()
	if err != nil {
		return res, s, err
	}
	g1, r1, err := d.cpu()
	if err != nil {
		return res, s, err
	}
	s.ctr, s.gateCPU, s.replicaCPU = c1.sub(c0), g1-g0, r1-r0
	s.rssMB, err = d.peakRSS()
	return res, s, err
}

// latencies returns the sorted latencies, in ms, of res's correct
// samples, and how many were within limit.
func latencies(res loadResult, limit time.Duration) (lat []float64, inLimit int) {
	for _, s := range res.samples {
		if s.e == nil || s.e.refDiff {
			continue
		}
		lat = append(lat, ms(s.lat))
		if s.lat <= limit {
			inLimit++
		}
	}
	sort.Float64s(lat)
	return lat, inLimit
}

func runServe(cfg config, o *outcome) error {
	v := newVerifier()
	var warm, meas phaseCount
	var d *deployment
	setup, err := setupTimes(func() (err error) {
		d, err = deploy(v, &warm)
		return err
	}, func() { d.stop() })
	if err != nil {
		return err
	}
	phase := func(seed int64, seconds float64, ph *phaseCount, rec *recorder) func() loadResult {
		return func() loadResult {
			return closedLoop(d.gw, seed, warmSet(), time.Duration(seconds*float64(time.Second)), v, ph, rec)
		}
	}
	res, snap, err := measurePhase(d, phase(cfg.seed, cfg.seconds, &meas, nil))
	if err != nil {
		d.stop()
		return err
	}
	if cfg.rec == nil {
		d.stop()
		if err := finishServe(o, v, res); err != nil {
			return err
		}
		return serveMetrics(o.e2e, setup, res, snap)
	}
	// The traced phase is compared on its p50 only.
	var traced phaseCount
	tres, _, err := measurePhase(d, phase(cfg.seed+1_000_003, min(cfg.seconds, tracedSeconds), &traced, cfg.rec))
	if err != nil {
		d.stop()
		return err
	}
	return serveLedger(cfg, o, d, v, res, snap, &warm, &meas, &tracedPhase{tres, &traced, setup})
}

// finishServe checks every answer against the in-process pipeline and
// counts the operations of the measured phases. Any failed operation
// makes the run incorrect, as none fails on a correct stack.
func finishServe(o *outcome, v *verifier, phases ...loadResult) error {
	svc := service.New()
	defer svc.Close()
	wrong, err := v.finish(svc, conns)
	if err != nil {
		return err
	}
	if wrong > 0 {
		o.errs = append(o.errs, fmt.Sprintf("%d distinct requests got an answer that differs from the in-process pipeline", wrong))
	}
	for _, res := range phases {
		o.attempted += int64(len(res.samples))
		for _, s := range res.samples {
			if s.e == nil || s.e.refDiff {
				o.failed++
			}
		}
	}
	if o.failed > 0 {
		o.errs = append(o.errs, fmt.Sprintf("%d of %d measured requests failed: not answered, not 200, degraded or wrong", o.failed, o.attempted))
	}
	return nil
}

// serveMetrics sets the end-to-end metrics of a measured serve phase.
// Throughput and p50 are medians over windows equal spans of the phase,
// so a few seconds of interference from outside the benchmark move one
// span, not the result; so is p99 when every span has ten samples
// beyond its own p99, and otherwise p99 is the whole phase's.
func serveMetrics(m *metrics, setup float64, res loadResult, snap snapshot) error {
	lat, inLimit := latencies(res, serveLimit)
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return fmt.Errorf("run too short: %w", err)
	}
	var tputs, p50s, p99s []float64
	width := res.wall / windows
	for w := 0; w < windows; w++ {
		var part loadResult
		for _, s := range res.samples {
			if min(int(s.done/width), windows-1) == w {
				part.samples = append(part.samples, s)
			}
		}
		wl, _ := latencies(part, serveLimit)
		if len(wl) == 0 {
			return fmt.Errorf("no correct answers in window %d", w)
		}
		tputs = append(tputs, float64(len(wl))/width.Seconds())
		p50s = append(p50s, median(wl))
		if wp99, err := percentile(wl, 0.99); err == nil {
			p99s = append(p99s, wp99)
		}
	}
	if len(p99s) == windows {
		p99 = median(p99s)
	}
	sent := float64(len(res.samples))
	m.set("setup_s", "s", setup)
	m.set("wall_s", "s", res.wall.Seconds())
	m.set("throughput_rps", "1/s", median(tputs))
	m.set("p50_ms", "ms", median(p50s))
	m.set("p99_ms", "ms", p99)
	m.set("slo_ok_pct", "%", 100*float64(inLimit)/sent)
	m.set("cpu_ms_per_op", "ms", ms(snap.gateCPU+snap.replicaCPU)/float64(len(lat)))
	m.set("peak_rss_mb", "MB", snap.rssMB)
	m.set("ok_pct", "%", 100*float64(len(lat))/sent)
	logf("%d samples, %d correct", len(res.samples), len(lat))
	byPath := map[string][]float64{}
	for _, s := range res.samples {
		byPath[s.path] = append(byPath[s.path], ms(s.lat))
	}
	for _, path := range []string{"/v1/predict", "/v1/compare"} {
		if xs := sortedCopy(byPath[path]); len(xs) > 0 {
			logf("  %-11s n=%-6d p50 %8.3f ms  max %8.3f ms", path, len(xs), median(xs), xs[len(xs)-1])
		}
	}
	return nil
}

type tracedPhase struct {
	res   loadResult
	count *phaseCount
	setup float64
}

// serveLedger finishes a traced run that has a deployment up: the hop
// probe, the checks, and every per-layer metric.
func serveLedger(cfg config, o *outcome, d *deployment, v *verifier, res loadResult, snap snapshot,
	warm, meas *phaseCount, tr *tracedPhase) error {
	var probe phaseCount
	hop, err := probeHop(d, v, &probe, cfg.rec)
	d.stop()
	if err != nil {
		return err
	}
	phases := []loadResult{res}
	if tr != nil {
		phases = append(phases, tr.res)
	}
	if err := finishServe(o, v, phases...); err != nil {
		return err
	}
	if tr != nil {
		if err := serveMetrics(o.e2e, tr.setup, res, snap); err != nil {
			return err
		}
		lat, _ := latencies(res, serveLimit)
		tlat, _ := latencies(tr.res, serveLimit)
		o.layer.set("bench.trace_overhead_pct", "%", 100*(median(tlat)-median(lat))/median(lat))
	}
	l := o.layer
	n := float64(len(res.samples))
	l.set("cluster.hop_us", "us", 1000*(hop.gateway-hop.direct))
	l.set("cluster.cpu_us_per_req", "us", us(snap.gateCPU)/n)
	l.set("cluster.hedge_pct", "%", 100*float64(snap.ctr.hedges)/n)
	l.set("cluster.retry_pct", "%", 100*float64(snap.ctr.retries)/n)
	// Replica CPU per request the gateway sent them, so hedges and
	// retries count as the extra work they are.
	l.set("blserve.cpu_us_per_req", "us", us(snap.replicaCPU)/math.Max(1, float64(snap.ctr.gateRequests)))
	l.set("blserve.resp_bytes", "B", hop.respBytes)
	l.set("service.hit_pct", "%", 100*float64(snap.ctr.runHits)/math.Max(1, float64(snap.ctr.runHits+snap.ctr.runMisses)))
	lags := make([]float64, 0, len(res.samples))
	for _, s := range res.samples {
		lags = append(lags, ms(s.lag))
	}
	sort.Float64s(lags)
	lagP99, err := percentile(lags, 0.99)
	if err != nil {
		return err
	}
	l.set("loadgen.lag_p99_ms", "ms", lagP99)
	for _, p := range []struct {
		name string
		c    *phaseCount
	}{{"warmup", warm}, {"measure", meas}, {"traced", tracedCount(tr)}, {"probe", &probe}} {
		l.set("loadgen."+p.name+".sent", "count", float64(p.c.sent.Load()))
		l.set("loadgen."+p.name+".ok", "count", float64(p.c.ok.Load()))
		l.set("loadgen."+p.name+".failed", "count", float64(p.c.failed.Load()))
	}
	if err := runLedger(l, cfg.rec); err != nil {
		return err
	}
	l.set("blserve.http_us", "us", 1000*hop.direct-l.m["service.predict_hit_us"].Value)
	return nil
}

func tracedCount(tr *tracedPhase) *phaseCount {
	if tr == nil {
		return &phaseCount{}
	}
	return tr.count
}

// runLedger times every module in-process and records the suite's
// predictor totals.
func runLedger(m *metrics, rec *recorder) error {
	t0 := time.Now()
	totals, err := suiteReplay()
	if err != nil {
		return err
	}
	rec.record("dynpred.SuiteReplay", 0, 0, t0, time.Now())
	m.set("dynpred.suite_branch_events", "count", float64(totals.events))
	for _, name := range append(dynpred.Names(), staticHeuristics, staticPerfect) {
		m.set("dynpred."+name+".suite_misses", "count", float64(totals.misses[name]))
	}
	cs, err := ledgerFrontEnd(m, rec)
	if err != nil {
		return err
	}
	traced, err := ledgerInterp(m, rec, cs)
	if err != nil {
		return err
	}
	ledgerTrace(m, rec, cs, traced)
	if err := ledgerDynpred(m, rec, cs); err != nil {
		return err
	}
	if err := ledgerPaper(m, rec); err != nil {
		return err
	}
	return ledgerService(m, rec)
}
