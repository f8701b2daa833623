package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the load generator's concurrency: one connection per CPU of
// the machine the benchmark was tuned on (2), whatever the workload.
const conns = 2

// target is one HTTP endpoint with its own connection pool of at most
// conns connections.
type target struct {
	base   string
	client *http.Client
}

func newTarget(addr string) *target {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &target{base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (t *target) send(r *request) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, t.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Tenant-Id", tenant)
	resp, err := t.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (t *target) getJSON(path string, v any) error {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: http %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// deployment is the serving stack under test: two blserve replicas with
// tenancy on, behind one blgate with default flags.
type deployment struct {
	replicas []*proc
	gate     *proc
	direct   []*target // one per replica
	gw       *target
}

// Every request names tenant, whose rate, tenantRate, is far above any
// the benchmark offers: the tenant middleware runs on every request and
// never refuses one.
const (
	tenant     = "bench-warm"
	tenantRate = "1000000"
)

// deploy builds and starts the stack and warms it until every warm-set
// request is a cache hit on both replicas: each replica answers the
// warm set directly, then the gateway, once it reports both replicas
// healthy, answers it once. The warm-up's answers are checked like any
// others.
func deploy(v *verifier, ph *phaseCount) (*deployment, error) {
	t0 := time.Now()
	if err := build("blserve", "blgate"); err != nil {
		return nil, err
	}
	tBuild := time.Now()
	d := &deployment{}
	var urls []string
	for i := 0; i < 2; i++ {
		// A 1s drain keeps blserve's lame-duck pause at shutdown, which
		// every set-up but the last pays, to 250ms.
		p, err := launch(fmt.Sprintf("blserve-r%d", i), "blserve",
			"-instance-id", fmt.Sprintf("r%d", i), "-tenants", "-tenant-rate", tenantRate,
			"-drain-timeout", "1s")
		if err != nil {
			d.stop()
			return nil, err
		}
		d.replicas = append(d.replicas, p)
		d.direct = append(d.direct, newTarget(p.addr))
		urls = append(urls, "http://"+p.addr)
	}
	tStart := time.Now()
	set := warmSet()
	var wg sync.WaitGroup
	errs := make([]error, len(d.direct))
	for i, t := range d.direct {
		wg.Add(1)
		go func(i int, t *target) {
			defer wg.Done()
			errs[i] = warmPass(t, set, v, ph)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	tWarm := time.Now()
	gate, err := launch("blgate", "blgate", "-replicas", strings.Join(urls, ","))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.gate, d.gw = gate, newTarget(gate.addr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h struct {
			Healthy int `json:"healthy_replicas"`
		}
		if err := d.gw.getJSON("/healthz", &h); err == nil && h.Healthy == len(d.replicas) {
			break
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gateway did not see %d healthy replicas within 30s", len(d.replicas))
		}
		time.Sleep(5 * time.Millisecond)
	}
	tReady := time.Now()
	if err := warmPass(d.gw, set, v, ph); err != nil {
		d.stop()
		return nil, err
	}
	logf("set-up: build %v, replicas start %v, replica warm-up %v, gateway ready %v, gateway pass %v",
		tBuild.Sub(t0).Round(time.Millisecond), tStart.Sub(tBuild).Round(time.Millisecond),
		tWarm.Sub(tStart).Round(time.Millisecond), tReady.Sub(tWarm).Round(time.Millisecond),
		time.Since(tReady).Round(time.Millisecond))
	return d, nil
}

// warmPass sends every request of set once, in order, and fails on the
// first wrong answer.
func warmPass(t *target, set []request, v *verifier, ph *phaseCount) error {
	for i := range set {
		r := &set[i]
		status, body, err := t.send(r)
		ph.sent.Add(1)
		if err == nil {
			_, err = v.check(r, status, body)
		}
		if err != nil {
			ph.failed.Add(1)
			return fmt.Errorf("warm-up: %w", err)
		}
		ph.ok.Add(1)
	}
	return nil
}

// stop stops the servers concurrently and waits for all of them.
func (d *deployment) stop() {
	ps := d.replicas
	if d.gate != nil {
		ps = append([]*proc{d.gate}, ps...)
	}
	stopProcs(ps)
}

// cpu returns the CPU the gateway and the replicas have used so far.
func (d *deployment) cpu() (gate, replicas time.Duration, err error) {
	if gate, err = cpuTime(d.gate.cmd.Process.Pid); err != nil {
		return 0, 0, err
	}
	for _, p := range d.replicas {
		c, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		replicas += c
	}
	return gate, replicas, nil
}

// peakRSS sums the processes' resident-set high-water marks, in MiB.
func (d *deployment) peakRSS() (float64, error) {
	var sum float64
	for _, p := range append([]*proc{d.gate}, d.replicas...) {
		mb, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// counters are the servers' own tallies, read before and after a phase.
type counters struct {
	runHits, runMisses int64 // replicas' /v1/stats
	hedges, retries    int64 // gateway
	gateRequests       int64 // gateway attempts sent to replicas
}

func (d *deployment) counters() (counters, error) {
	var c counters
	for _, t := range d.direct {
		var st struct {
			RunHits   int64 `json:"run_hits"`
			RunMisses int64 `json:"run_misses"`
		}
		if err := t.getJSON("/v1/stats", &st); err != nil {
			return c, err
		}
		c.runHits += st.RunHits
		c.runMisses += st.RunMisses
	}
	var gs struct {
		HedgeFires int64 `json:"hedge_fires"`
		Replicas   []struct {
			Requests int64 `json:"requests"`
		} `json:"replicas"`
	}
	if err := d.gw.getJSON("/gateway/stats", &gs); err != nil {
		return c, err
	}
	c.hedges = gs.HedgeFires
	for _, r := range gs.Replicas {
		c.gateRequests += r.Requests
	}
	retries, err := d.gateRetries()
	c.retries = retries
	return c, err
}

// gateRetries reads the gateway's retry-attempt counter from /metrics.
func (d *deployment) gateRetries() (int64, error) {
	resp, err := d.gw.client.Get(d.gw.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), `ballarus_gateway_attempts_total{kind="retry"} `); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, sc.Err()
}

func (c counters) sub(o counters) counters {
	return counters{c.runHits - o.runHits, c.runMisses - o.runMisses, c.hedges - o.hedges,
		c.retries - o.retries, c.gateRequests - o.gateRequests}
}

// phaseCount tallies one load phase's requests.
type phaseCount struct {
	sent, ok, failed atomic.Int64
}

// sample is one measured request. Latency runs from the send to the
// end of the response; lag is the time the client spent between its
// previous answer and this send.
type sample struct {
	path string
	done time.Duration // completion, since the phase started
	lat  time.Duration
	lag  time.Duration
	e    *seen // nil when the response failed its checks on arrival
}

// loadResult is one measured phase.
type loadResult struct {
	samples []sample
	wall    time.Duration
}

// closedLoop runs conns clients, each sending its next warm-set request
// as soon as the previous one is answered, for dur. Spans: one
// loadgen.request per request with the HTTP call to the gateway as its
// child.
func closedLoop(t *target, seed int64, set []request, dur time.Duration, v *verifier, ph *phaseCount, rec *recorder) loadResult {
	var mu sync.Mutex
	var res loadResult
	start := time.Now()
	var reqID atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := newClosedOrder(seed, c, set)
			var local []sample
			prevDone := time.Now()
			for time.Since(start) < dur {
				r := order.next()
				id := reqID.Add(1)
				root, end := rec.start("loadgen.request", 0, id)
				t0 := time.Now()
				status, body, err := t.send(r)
				t1 := time.Now()
				rec.record("cluster.http"+r.Path, root, id, t0, t1)
				var e *seen
				if err == nil {
					e, err = v.check(r, status, body)
				}
				end()
				ph.sent.Add(1)
				if err != nil {
					ph.failed.Add(1)
					logFailure(err)
				} else {
					ph.ok.Add(1)
				}
				local = append(local, sample{path: r.Path, done: t1.Sub(start), lat: t1.Sub(t0), lag: t0.Sub(prevDone), e: e})
				prevDone = time.Now()
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

var failureLogs atomic.Int64

// logFailure reports the first few failed requests on stderr.
func logFailure(err error) {
	if failureLogs.Add(1) <= 5 {
		logf("request failed: %v", err)
	}
}

// hopResult is the gateway hop probe's outcome.
type hopResult struct {
	direct, gateway float64 // p50 ms
	respBytes       float64 // mean /v1/predict response size
}

// probeHop sends the warm predicts, one at a time, alternately straight
// to a replica and through the gateway, so both medians come from the
// same requests under the same load.
func probeHop(d *deployment, v *verifier, ph *phaseCount, rec *recorder) (hopResult, error) {
	var set []request
	for _, r := range warmSet() {
		if !r.Item.Compare {
			set = append(set, r)
		}
	}
	const passes = 3
	var direct, gw []float64
	var bytes float64
	id := uint64(0)
	for pass := 0; pass < passes; pass++ {
		for i := range set {
			r := &set[i]
			order := []*target{d.direct[0], d.gw}
			if (pass+i)%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, t := range order {
				id++
				t0 := time.Now()
				status, body, err := t.send(r)
				t1 := time.Now()
				layer := "blserve"
				if t == d.gw {
					layer = "cluster"
				}
				rec.record(layer+".http"+r.Path, 0, id, t0, t1)
				ph.sent.Add(1)
				if err == nil {
					_, err = v.check(r, status, body)
				}
				if err != nil {
					ph.failed.Add(1)
					return hopResult{}, fmt.Errorf("hop probe: %w", err)
				}
				ph.ok.Add(1)
				if t == d.gw {
					gw = append(gw, ms(t1.Sub(t0)))
				} else {
					direct = append(direct, ms(t1.Sub(t0)))
					bytes += float64(len(body))
				}
			}
		}
	}
	return hopResult{direct: median(direct), gateway: median(gw), respBytes: bytes / float64(len(direct))}, nil
}
