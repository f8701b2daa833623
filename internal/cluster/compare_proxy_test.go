package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestGatewayProxiesCompare(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	_, ts := newTestGateway(t, Config{}, a, b)

	resp, data := postPath(t, ts.URL, "/v1/compare", `{"source":"x"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (body %s)", resp.StatusCode, data)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil || out["name"] != "fake-compare" {
		t.Fatalf("body %s not relayed (err %v)", data, err)
	}
	if a.cmpHits.Load()+b.cmpHits.Load() == 0 {
		t.Fatal("no replica saw the compare request")
	}
	if a.hits.Load()+b.hits.Load() != 0 {
		t.Fatal("compare request leaked onto /v1/predict")
	}
}

// TestGatewayHedgesCompare: /v1/compare is an idempotent route, so a
// stalled primary must be hedged exactly like /v1/predict.
func TestGatewayHedgesCompare(t *testing.T) {
	const stall = 3 * time.Second
	slowRep := newFakeReplica(t, "slow")
	fastRep := newFakeReplica(t, "fast")
	slowRep.compare.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(stall):
		}
		okCompare("slow")(w, r)
	})
	g, ts := newTestGateway(t, Config{
		MaxAttempts:  2,
		HedgeInitial: 30 * time.Millisecond,
		HedgeMin:     10 * time.Millisecond,
		RetryRatio:   1,
		RetryBurst:   100,
	}, slowRep, fastRep)

	start := time.Now()
	const n = 8
	for i := 0; i < n; i++ {
		resp, data := postPath(t, ts.URL, "/v1/compare", fmt.Sprintf(`{"source":"req%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", i, resp.StatusCode, data)
		}
		if id := resp.Header.Get("X-Instance-Id"); id != "fast" {
			t.Fatalf("request %d answered by %q, want fast (hedge should win)", i, id)
		}
	}
	if elapsed := time.Since(start); elapsed > n*stall/2 {
		t.Fatalf("%d compares took %v; hedging is not cutting the stall tail", n, elapsed)
	}
	if g.metrics.hedgeFires.Value() == 0 || g.metrics.hedgeWins.Value() == 0 {
		t.Fatalf("hedge fires/wins = %d/%d, want both nonzero",
			g.metrics.hedgeFires.Value(), g.metrics.hedgeWins.Value())
	}
}

// TestGatewayStaleKeysScopedByRoute: the same JSON body posted to
// /v1/predict and /v1/compare must hold two separate brownout entries —
// a dead fleet serves each route its own last-known-good answer.
func TestGatewayStaleKeysScopedByRoute(t *testing.T) {
	a := newFakeReplica(t, "a")
	g, ts := newTestGateway(t, Config{MaxAttempts: 1}, a)

	const body = `{"source":"same"}`
	if resp, data := postBody(t, ts.URL, body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict prime status = %d (body %s)", resp.StatusCode, data)
	}
	if resp, data := postPath(t, ts.URL, "/v1/compare", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("compare prime status = %d (body %s)", resp.StatusCode, data)
	}
	if got := g.stale.len(); got != 2 {
		t.Fatalf("stale entries = %d, want 2 (one per route)", got)
	}

	fail := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}
	a.predict.Store(fail)
	a.compare.Store(fail)

	for path, wantName := range map[string]string{
		"/v1/predict": "fake",
		"/v1/compare": "fake-compare",
	} {
		resp, data := postPath(t, ts.URL, path, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s brownout status = %d (body %s)", path, resp.StatusCode, data)
		}
		var out map[string]any
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out["name"] != wantName || out["degraded"] != true {
			t.Fatalf("%s stale body = %s, want degraded %q answer", path, data, wantName)
		}
	}
}

func TestStaleKeyRouteScoped(t *testing.T) {
	body := []byte(`{"a":1}`)
	kp := staleKey("/v1/predict", body)
	kc := staleKey("/v1/compare", body)
	if kp == "" || kc == "" || kp == kc {
		t.Fatalf("staleKey collides across routes: %q vs %q", kp, kc)
	}
	// 2^53 and 2^53+1 are one float64: a key that decodes numbers
	// would merge these two distinct requests.
	k1 := staleKey("/v1/predict", []byte(`{"input":[9007199254740992]}`))
	k2 := staleKey("/v1/predict", []byte(`{"input":[9007199254740993]}`))
	if k1 == k2 {
		t.Fatal("staleKey merges inputs that differ past float64 precision")
	}
}
