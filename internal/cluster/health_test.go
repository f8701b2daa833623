package cluster

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestReplicaRiseFall(t *testing.T) {
	rep, err := newReplica("r", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if !rep.available(now) {
		t.Fatal("replica should start available")
	}
	// One failure is noise; the second crosses fall=2.
	if _, changed := rep.probeResult(false, 2, 2); changed {
		t.Fatal("single failed probe flipped state")
	}
	if healthy, changed := rep.probeResult(false, 2, 2); healthy || !changed {
		t.Fatal("fall threshold did not mark replica down")
	}
	// A pass resets the fall run but needs rise=2 passes to recover.
	if _, changed := rep.probeResult(true, 2, 2); changed {
		t.Fatal("single passing probe flipped state")
	}
	if healthy, changed := rep.probeResult(true, 2, 2); !healthy || !changed {
		t.Fatal("rise threshold did not mark replica healthy")
	}
	// An intervening failure resets the rise run.
	rep.probeResult(false, 2, 2)
	rep.probeResult(false, 2, 2) // down again
	rep.probeResult(true, 2, 2)
	rep.probeResult(false, 2, 2) // breaks the rise run
	if healthy, _ := rep.probeResult(true, 2, 2); healthy {
		t.Fatal("rise run survived an intervening failure")
	}
}

func TestReplicaEjectionCooloff(t *testing.T) {
	rep, err := newReplica("r", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	base, max := time.Second, 4*time.Second

	rep.noteFailure(now, 3, base, max)
	rep.noteFailure(now, 3, base, max)
	if rep.ejected(now) {
		t.Fatal("ejected before the threshold")
	}
	if cool := rep.noteFailure(now, 3, base, max); cool != base {
		t.Fatalf("first cool-off = %v, want %v", cool, base)
	}
	if !rep.ejected(now) || rep.available(now) {
		t.Fatal("not ejected after threshold")
	}
	if !rep.ejected(now.Add(base-time.Millisecond)) || rep.ejected(now.Add(base)) {
		t.Fatal("cool-off window wrong")
	}

	// Repeat ejections back off exponentially, capped at max.
	later := now.Add(10 * time.Second)
	for i := 0; i < 3; i++ {
		rep.noteFailure(later, 3, base, max)
	}
	var cool time.Duration
	for i := 0; i < 3; i++ {
		cool = rep.noteFailure(later, 1, base, max)
	}
	if cool != max {
		t.Fatalf("repeat cool-off = %v, want capped at %v", cool, max)
	}

	// Success ends an ejection early and resets the failure run.
	rep.noteSuccess(later)
	if rep.ejected(later.Add(time.Millisecond)) {
		t.Fatal("success did not clear the ejection")
	}
}

func TestPickPrefersAvailableAndExcludesTried(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	g, _ := newTestGateway(t, Config{}, a, b)
	repA, repB := g.replicas[0], g.replicas[1]

	// Eject A: picks must all land on B.
	repA.noteFailure(time.Now(), 1, time.Minute, time.Minute)
	for i := 0; i < 4; i++ {
		if got := g.pick("", nil); got != repB {
			t.Fatalf("pick chose %s, want the non-ejected replica", got.id)
		}
	}
	// With B tried, the ejected A is still better than nothing.
	if got := g.pick("", map[*replica]bool{repB: true}); got != repA {
		t.Fatal("pick refused the last-resort replica")
	}
	// Everything tried: nil.
	if got := g.pick("", map[*replica]bool{repA: true, repB: true}); got != nil {
		t.Fatalf("pick = %v with all replicas tried, want nil", got)
	}
}

// TestActiveProbing: a replica whose /healthz starts failing is
// probed out of rotation, and probed back in when it recovers.
func TestActiveProbing(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	g, ts := newTestGateway(t, Config{
		ProbeEvery:   20 * time.Millisecond,
		ProbeTimeout: 200 * time.Millisecond,
		Rise:         1,
		Fall:         2,
	}, a, b)

	waitHealthy := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for g.healthyCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("healthyCount stuck at %d, want %d", g.healthyCount(), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitHealthy(2)
	a.healthy.Store(false)
	waitHealthy(1)

	// Traffic avoids the probed-down replica.
	before := a.hits.Load()
	for i := 0; i < 4; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"r%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", i, resp.StatusCode, data)
		}
	}
	if after := a.hits.Load(); after != before {
		t.Fatalf("probed-down replica got traffic: %d → %d", before, after)
	}

	a.healthy.Store(true)
	waitHealthy(2)
}

func TestStaleStore(t *testing.T) {
	s := newStaleStore(2)
	// Inputs past float64 precision are distinct requests with distinct
	// answers: each brownout read returns its own, integers exact.
	k1 := staleKey("/v1/predict", []byte(`{"input":[9007199254740992]}`))
	k2 := staleKey("/v1/predict", []byte(`{"input":[9007199254740993]}`))
	s.put(k1, []byte(`{"name":"x","exit_code":9007199254740992}`))
	s.put(k2, []byte(`{"name":"x","exit_code":9007199254740993,"degraded":false}`))
	for key, exit := range map[string]string{k1: "9007199254740992", k2: "9007199254740993"} {
		got, ok := s.get(key)
		if !ok {
			t.Fatal("miss on stored key")
		}
		if !strings.Contains(string(got), `"degraded":true`) {
			t.Fatalf("brownout body not degraded: %s", got)
		}
		if !strings.Contains(string(got), `"exit_code":`+exit+`,`) {
			t.Fatalf("brownout body %s, want exit_code %s exactly", got, exit)
		}
	}

	// LRU eviction at capacity 2: touching k1 keeps it, k3 evicts k2.
	k3 := staleKey("/v1/predict", []byte(`{"c":3}`))
	s.get(k1)
	s.put(k3, []byte(`{}`))
	if _, ok := s.get(k2); ok {
		t.Fatal("LRU did not evict the cold entry")
	}
	if _, ok := s.get(k1); !ok {
		t.Fatal("LRU evicted the recently used entry")
	}
}
