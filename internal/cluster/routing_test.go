package cluster

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"
)

// testReplicas builds n bare replicas (no server behind them) for
// policy-level tests.
func testReplicas(t *testing.T, n int) []*replica {
	t.Helper()
	reps := make([]*replica, n)
	for i := range reps {
		rep, err := newReplica(fmt.Sprintf("replica%d", i), fmt.Sprintf("http://127.0.0.1:%d", 9000+i))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	return reps
}

// TestLeastInflightTieBreakSpread: with three equally idle replicas the
// tie-break must spread picks near-uniformly. The old scan-order
// tie-break gave replica0 everything; the seeded LCG must not.
func TestLeastInflightTieBreakSpread(t *testing.T) {
	reps := testReplicas(t, 3)
	p, err := newRoutingPolicy(RoutingLeastInflight, 1)
	if err != nil {
		t.Fatal(err)
	}
	const picks = 3000
	counts := map[string]int{}
	for i := 0; i < picks; i++ {
		counts[p.Pick("", reps).id]++
	}
	want := picks / len(reps)
	for _, rep := range reps {
		got := counts[rep.id]
		if got < want*8/10 || got > want*12/10 {
			t.Errorf("replica %s picked %d/%d times, want ~%d ±20%% (counts %v)",
				rep.id, got, picks, want, counts)
		}
	}
}

// TestLeastInflightPrefersIdle: load breaks the tie before the LCG does.
func TestLeastInflightPrefersIdle(t *testing.T) {
	reps := testReplicas(t, 3)
	reps[0].inflight.Store(2)
	reps[2].inflight.Store(5)
	p, _ := newRoutingPolicy(RoutingLeastInflight, 7)
	for i := 0; i < 50; i++ {
		if got := p.Pick("", reps); got != reps[1] {
			t.Fatalf("pick %d = %s, want the idle replica1", i, got.id)
		}
	}
}

// TestRendezvousStable: the property the routing tier depends on —
// while the replica set is unchanged, a key always routes to the same
// replica, regardless of candidate order.
func TestRendezvousStable(t *testing.T) {
	reps := testReplicas(t, 5)
	p, err := newRoutingPolicy(RoutingRendezvous, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d-%d", i, rng.Int63())
		first := p.Pick(key, reps)
		if again := p.Pick(key, reps); again != first {
			t.Fatalf("key %q moved from %s to %s with an unchanged set", key, first.id, again.id)
		}
		shuffled := append([]*replica(nil), reps...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got := p.Pick(key, shuffled); got != first {
			t.Fatalf("key %q routed to %s under a shuffled candidate order, want %s", key, got.id, first.id)
		}
	}
}

// TestRendezvousMinimalDisruption: removing one of N replicas remaps
// exactly the keys it owned (~1/N of them) and no others; restoring it
// restores the original assignment bit for bit.
func TestRendezvousMinimalDisruption(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			reps := testReplicas(t, n)
			p, _ := newRoutingPolicy(RoutingRendezvous, 1)
			const keys = 2000
			owner := make([]*replica, keys)
			key := func(i int) string { return fmt.Sprintf("program-hash-%d", i) }
			for i := 0; i < keys; i++ {
				owner[i] = p.Pick(key(i), reps)
			}

			dead := reps[1]
			var survivors []*replica
			for _, rep := range reps {
				if rep != dead {
					survivors = append(survivors, rep)
				}
			}
			remapped := 0
			for i := 0; i < keys; i++ {
				after := p.Pick(key(i), survivors)
				switch {
				case owner[i] == dead:
					remapped++
				case after != owner[i]:
					t.Fatalf("key %d owned by surviving %s remapped to %s", i, owner[i].id, after.id)
				}
			}
			// The dead replica owned ~1/n of the keys; allow generous
			// slack around the expectation but stay under the issue's
			// ≤40% bound for n=3.
			frac := float64(remapped) / keys
			lo, hi := 0.5/float64(n), 1.6/float64(n)
			if frac < lo || frac > hi {
				t.Errorf("killing 1 of %d remapped %.1f%% of keys, want ~%.1f%%", n, 100*frac, 100/float64(n))
			}
			if n == 3 && frac > 0.40 {
				t.Errorf("killing 1 of 3 remapped %.1f%%, exceeding the 40%% rendezvous bound", 100*frac)
			}

			// Readmission: the original owners reclaim their keys.
			for i := 0; i < keys; i++ {
				if got := p.Pick(key(i), reps); got != owner[i] {
					t.Fatalf("key %d did not return to %s after readmission (got %s)", i, owner[i].id, got.id)
				}
			}
		})
	}
}

func TestUnknownRoutingPolicyRejected(t *testing.T) {
	if _, err := newRoutingPolicy("bogus", 1); err == nil {
		t.Fatal("unknown routing policy must be rejected")
	}
	if _, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}, Routing: "bogus", ProbeEvery: -1}); err == nil {
		t.Fatal("New must reject an unknown Config.Routing")
	}
}

// TestGatewayQuotaPassThrough: a per-tenant quota 429 (marked with
// X-RateLimit-Limit by blserve) must pass through on the first attempt
// — no retry, no hedge, no brownout masking — with its backoff headers
// intact, while a bare global-overload 429 still fails over to the
// other replica.
func TestGatewayQuotaPassThrough(t *testing.T) {
	quotaHandler := func(id string) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Tenant-Id") == "metered" {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Retry-After", "2")
				w.Header().Set("X-RateLimit-Limit", "5")
				w.Header().Set("X-RateLimit-Remaining", "0")
				w.Header().Set("X-RateLimit-Reset", "2")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprintf(w, `{"error":"tenant over rate quota","code":"quota_exceeded"}`)
				return
			}
			okPredict(id)(w, r)
		}
	}
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(quotaHandler("a"))
	b.predict.Store(quotaHandler("b"))
	g, ts := newTestGateway(t, Config{MaxAttempts: 3, RetryRatio: 1, RetryBurst: 100}, a, b)

	resp, data := postBody(t, ts.URL, `{"source":"quota-test"}`, map[string]string{"X-Tenant-Id": "metered"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (body %s), want 429", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-RateLimit-Limit"); got != "5" {
		t.Errorf("X-RateLimit-Limit = %q, want 5 relayed", got)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2 relayed", got)
	}
	if total := a.hits.Load() + b.hits.Load(); total != 1 {
		t.Errorf("quota rejection took %d attempts, want 1 (retries amplify a deterministic rejection)", total)
	}
	if got := g.metrics.requests["quota"].Value(); got != 1 {
		t.Errorf("quota outcome counter = %d, want 1", got)
	}

	// The same tenant header reaches the replica untouched (the fake
	// keyed its 429 on it), and an unmetered tenant still succeeds.
	resp, data = postBody(t, ts.URL, `{"source":"quota-test"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unmetered request status = %d (body %s)", resp.StatusCode, data)
	}

	// A bare 429 with no X-RateLimit-Limit is global overload: retryable.
	a.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"error":"shed","code":"overload"}`)
	})
	b.predict.Store(okPredict("b"))
	for i := 0; i < 4; i++ {
		resp, data = postBody(t, ts.URL, fmt.Sprintf(`{"source":"overload-%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("global 429 not retried: status = %d (body %s)", resp.StatusCode, data)
		}
	}
}

// TestGatewayRendezvousRouting: with the rendezvous policy, repeats of
// the same body land on one replica (whose cache specializes on it)
// while the key space spreads across the fleet.
func TestGatewayRendezvousRouting(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	c := newFakeReplica(t, "c")
	_, ts := newTestGateway(t, Config{Routing: RoutingRendezvous, RoutingSeed: 1}, a, b, c)

	seen := map[string]bool{}
	for k := 0; k < 12; k++ {
		body := fmt.Sprintf(`{"source":"program-%d"}`, k)
		var owner string
		for rep := 0; rep < 3; rep++ {
			resp, data := postBody(t, ts.URL, body, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d (body %s)", resp.StatusCode, data)
			}
			id := resp.Header.Get("X-Instance-Id")
			if owner == "" {
				owner = id
			} else if id != owner {
				t.Fatalf("key %d moved from %s to %s with a stable fleet", k, owner, id)
			}
		}
		seen[owner] = true
	}
	if len(seen) < 2 {
		t.Errorf("12 distinct keys all routed to one replica: %v", seen)
	}
}
