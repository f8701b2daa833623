package cluster

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"
)

func TestLatencyTrackerDelay(t *testing.T) {
	lt := newLatencyTracker(0.9, 50*time.Millisecond, 5*time.Millisecond)
	if got := lt.delay(); got != 50*time.Millisecond {
		t.Fatalf("thin-data delay = %v, want the 50ms initial", got)
	}
	// 100 samples: 90 fast, 10 slow. The p90 sits at the boundary.
	for i := 0; i < 90; i++ {
		lt.observe(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		lt.observe(200 * time.Millisecond)
	}
	if got := lt.delay(); got < 10*time.Millisecond || got > 200*time.Millisecond {
		t.Fatalf("p90 delay = %v, want within observed range", got)
	}
	// The floor clamps a uniformly fast fleet.
	lt2 := newLatencyTracker(0.9, 50*time.Millisecond, 5*time.Millisecond)
	for i := 0; i < 64; i++ {
		lt2.observe(time.Microsecond)
	}
	if got := lt2.delay(); got != 5*time.Millisecond {
		t.Fatalf("clamped delay = %v, want the 5ms floor", got)
	}
}

// TestLatencyTrackerMatchesSortedWindow: the incrementally sorted
// window answers exactly what sorting a copy of the last
// latencySamples observations would, through many wrap-arounds and
// with duplicate samples, and delay never allocates.
func TestLatencyTrackerMatchesSortedWindow(t *testing.T) {
	const q, initial, floor = 0.9, 50 * time.Millisecond, 20 * time.Millisecond
	lt := newLatencyTracker(q, initial, floor)
	r := rand.New(rand.NewSource(1))
	var window []time.Duration
	for n := 0; n < 5000; n++ {
		// Whole milliseconds give plenty of duplicates; the range
		// shifts every 1000 observations, so the quantile moves from
		// above the floor to below it and back.
		hi := 40
		if n/1000%2 == 1 {
			hi = 15
		}
		d := time.Duration(1+r.Intn(hi)) * time.Millisecond
		lt.observe(d)
		window = append(window, d)
		if len(window) > latencySamples {
			window = window[1:]
		}
		want := initial
		if len(window) >= latencyMinData {
			sorted := append([]time.Duration(nil), window...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			idx := int(float64(len(sorted)) * q)
			if idx >= len(sorted) {
				idx = len(sorted) - 1
			}
			want = max(sorted[idx], floor)
		}
		if got := lt.delay(); got != want {
			t.Fatalf("after %d observations: delay = %v, want %v", n+1, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { lt.delay() }); allocs != 0 {
		t.Fatalf("delay allocates %v times per call, want 0", allocs)
	}
}

// TestHedgeBeatsStall: with one replica stalled, the hedge fires after
// the configured delay and the fast replica's answer wins — the
// client never waits out the stall. RoutingSeed 1 makes the first
// least-inflight tie-break (both replicas idle) send the first primary
// to the stalled replica, so a hedge fires on every run.
func TestHedgeBeatsStall(t *testing.T) {
	const stall = 3 * time.Second
	slowRep := newFakeReplica(t, "slow")
	fastRep := newFakeReplica(t, "fast")
	slowRep.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(stall):
		}
		okPredict("slow")(w, r)
	})
	g, ts := newTestGateway(t, Config{
		MaxAttempts:  2,
		HedgeInitial: 30 * time.Millisecond,
		HedgeMin:     10 * time.Millisecond,
		RetryRatio:   1,
		RetryBurst:   100,
		RoutingSeed:  1,
	}, slowRep, fastRep)

	start := time.Now()
	const n = 8
	for i := 0; i < n; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", i, resp.StatusCode, data)
		}
		if id := resp.Header.Get("X-Instance-Id"); id != "fast" {
			t.Fatalf("request %d answered by %q, want fast (hedge should win)", i, id)
		}
	}
	if elapsed := time.Since(start); elapsed > n*stall/2 {
		t.Fatalf("%d requests took %v; hedging is not cutting the stall tail", n, elapsed)
	}

	fires, wins := g.metrics.hedgeFires.Value(), g.metrics.hedgeWins.Value()
	if fires == 0 {
		t.Fatal("no hedges fired despite a stalled replica")
	}
	if wins == 0 {
		t.Fatal("no hedge wins recorded")
	}
	if wins > fires {
		t.Fatalf("hedge wins %d > fires %d", wins, fires)
	}
}

// TestHedgeRespectsBudget: with a zero-burst empty budget, hedges are
// suppressed rather than amplifying load.
func TestHedgeRespectsBudget(t *testing.T) {
	slowRep := newFakeReplica(t, "slow")
	fastRep := newFakeReplica(t, "fast")
	slowRep.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
		okPredict("slow")(w, r)
	})
	fastRep.predict.Store(slowRep.predict.Load().(func(http.ResponseWriter, *http.Request)))
	g, ts := newTestGateway(t, Config{
		MaxAttempts:  3,
		HedgeInitial: 10 * time.Millisecond,
		RetryRatio:   0.0001, // effectively never banks a whole token
		RetryBurst:   1,
	}, slowRep, fastRep)
	g.budget.take() // drain the initial burst

	for i := 0; i < 4; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", i, resp.StatusCode, data)
		}
	}
	if fires := g.metrics.hedgeFires.Value(); fires != 0 {
		t.Fatalf("hedges fired %d times with an empty budget", fires)
	}
	if denied := g.metrics.retryDenied.Value(); denied == 0 {
		t.Fatal("budget denials not recorded")
	}
}
