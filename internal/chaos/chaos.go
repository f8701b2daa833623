// Package chaos is a deterministic chaos harness for blserve: it
// spawns a real server process, drives seeded traffic and scripted
// fault schedules through the resilience faultpoint registry, kills
// the process hard (SIGKILL) mid-load, restarts it, and asserts the
// durability invariants the system promises:
//
//   - snapshots are never torn: after any kill, the on-disk snapshot
//     decodes cleanly (atomic temp+rename writes);
//   - a restarted server is warm: recovered state turns repeated
//     requests into whole-pipeline cache hits at or above a floor;
//   - every response is exclusive: a request is either answered (result
//     body) or refused (error body with a taxonomy code), never both,
//     and refusals that are retryable (429, 504) say so via Retry-After;
//   - corruption is data loss, not an outage: a deliberately
//     bit-flipped snapshot entry is skipped and counted at the next
//     boot, which otherwise succeeds;
//   - observability is truthful: after the drills, /metrics serves a
//     lint-clean Prometheus exposition whose breaker-open and
//     corruption-skip counters match what /v1/stats reports and what
//     the harness actually inflicted.
//
// Runs are scripted by a seeded PRNG, so a failing schedule replays
// with the same -seed.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ballarus/internal/durable"
	"ballarus/internal/obs"
)

// Config parameterizes one chaos run.
type Config struct {
	// Bin is the blserve binary to torture; required (see BuildServe).
	Bin string
	// Seed drives the request/fault/kill schedule. Same seed, same
	// schedule.
	Seed int64
	// Duration bounds the kill-restart soak (the corruption drill runs
	// once after it). <= 0 means 20s.
	Duration time.Duration
	// HitFloor is the minimum warm-hit fraction required after a
	// restart that recovered state. <= 0 means 0.5.
	HitFloor float64
	// StateDir is the server's durable directory; empty means a temp
	// dir removed after the run.
	StateDir string
	// Log receives harness narration and forwarded server stderr; nil
	// discards it.
	Log io.Writer
}

// Report is the outcome of a chaos run. Violations is the list of
// broken invariants; a clean run has none.
type Report struct {
	Seed        int64   `json:"seed"`
	Rounds      int     `json:"rounds"`
	Requests    int     `json:"requests"`
	Answered    int     `json:"answered"`
	Refused     int     `json:"refused"`
	Kills       int     `json:"kills"`
	Restarts    int     `json:"restarts"`
	WarmChecks  int     `json:"warm_checks"`
	WarmHitRate float64 `json:"warm_hit_rate"` // of the last warm check
	Recovered   int64   `json:"recovered"`     // warmed requests, summed over restarts
	Skipped     int64   `json:"skipped"`       // corrupt entries skipped at the drill boot
	// BreakerOpens is the execute breaker's open count after the scripted
	// breaker drill; MetricsScraped marks a successful post-soak /metrics
	// scrape, lint, and stats cross-check.
	BreakerOpens   int64    `json:"breaker_opens"`
	MetricsScraped bool     `json:"metrics_scraped"`
	Violations     []string `json:"violations,omitempty"`
}

// job is one scripted request; distinct (source, seed) pairs are
// distinct pipeline jobs.
type job struct {
	Source string `json:"source"`
	Seed   int64  `json:"seed,omitempty"`
}

// statsView is the slice of /v1/stats the harness asserts on.
type statsView struct {
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Breakers  []struct {
		Name     string `json:"name"`
		State    string `json:"state"`
		Opens    int64  `json:"opens"`
		Rejected int64  `json:"rejected"`
	} `json:"breakers"`
	Durability struct {
		Enabled         bool  `json:"enabled"`
		SnapshotEntries int64 `json:"snapshot_entries"`
		SnapshotSkipped int64 `json:"snapshot_skipped"`
		JournalReplayed int64 `json:"journal_replayed"`
		Warmed          int64 `json:"warmed"`
	} `json:"durability"`
}

type harness struct {
	cfg    Config
	rng    *rand.Rand
	client *http.Client
	log    io.Writer
	srv    *proc

	mu        sync.Mutex
	completed []job // jobs answered 200 at least once, oldest first
	seen      map[string]bool
	rep       *Report
}

// Run executes one chaos run. The returned error reports harness-level
// failures (binary missing, server never came up); broken invariants
// land in Report.Violations instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 20 * time.Second
	}
	if cfg.HitFloor <= 0 {
		cfg.HitFloor = 0.5
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.StateDir == "" {
		dir, err := os.MkdirTemp("", "blchaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.StateDir = dir
	}
	h := &harness{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		client: &http.Client{Timeout: 20 * time.Second},
		log:    cfg.Log,
		seen:   map[string]bool{},
		rep:    &Report{Seed: cfg.Seed},
	}
	if err := h.start(); err != nil {
		return h.rep, err
	}
	defer func() {
		if srv := h.cur(); srv != nil {
			srv.kill()
		}
	}()

	end := time.Now().Add(cfg.Duration)
	for time.Now().Before(end) && ctx.Err() == nil {
		h.rep.Rounds++
		fmt.Fprintf(h.log, "chaos: round %d\n", h.rep.Rounds)
		h.traffic(8 + h.rng.Intn(8))
		switch h.rng.Intn(3) {
		case 0:
			h.faultEpisode()
		case 1:
			h.overloadBurst()
		}
		// Bound what the kill may lose, then kill mid-traffic. The
		// in-flight jobs are drawn here so the PRNG stays on one
		// goroutine.
		h.post("/debug/snapshot", nil)
		inflight := []job{h.pickJob(), h.pickJob(), h.newJob(), h.newJob()}
		go func() {
			for _, j := range inflight {
				h.send(j)
			}
		}()
		time.Sleep(time.Duration(h.rng.Intn(40)) * time.Millisecond)
		h.killAndCheckSnapshot()
		if err := h.restartAndCheckWarm(); err != nil {
			return h.rep, err
		}
	}
	if ctx.Err() != nil {
		return h.rep, ctx.Err()
	}
	if err := h.corruptionDrill(); err != nil {
		return h.rep, err
	}
	h.breakerDrill()
	h.metricsCheck()
	if err := h.cur().stop(10 * time.Second); err != nil {
		h.violate("graceful shutdown failed: %v", err)
	}
	h.setSrv(nil)
	return h.rep, nil
}

// cur and setSrv guard the live-process pointer: request goroutines
// may still be draining while the main loop kills and restarts.
func (h *harness) cur() *proc {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.srv
}

func (h *harness) setSrv(p *proc) {
	h.mu.Lock()
	h.srv = p
	h.mu.Unlock()
}

func (h *harness) start() error {
	srv, err := startServe(h.cfg.Bin, []string{
		"-addr", "127.0.0.1:0",
		"-workers", "4",
		"-queue", "8",
		"-timeout", "2s",
		"-drain-timeout", "5s",
		"-chaos-admin",
		"-state-dir", h.cfg.StateDir,
		"-snapshot-every", "500ms",
		"-journal-sync", "10ms",
		"-watchdog", "2s",
	}, h.log)
	if err != nil {
		return err
	}
	h.setSrv(srv)
	return nil
}

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(h.log, "chaos: VIOLATION: %s\n", msg)
	if len(h.rep.Violations) < 32 {
		h.rep.Violations = append(h.rep.Violations, msg)
	}
}

// newJob derives a scripted request from the PRNG: a cheap branchy
// loop whose parameters (and interpreter seed) shape distinct content
// hashes.
func (h *harness) newJob() job {
	n := 100 + h.rng.Intn(40)*25
	m := 2 + h.rng.Intn(8)
	src := fmt.Sprintf(
		"int main() { int i; int s = 0; for (i = 0; i < %d; i++) { if (i %% %d == 0) { s += i; } else { s -= 1; } } printi(s); return 0; }",
		n, m)
	return job{Source: src, Seed: int64(h.rng.Intn(4))}
}

// slowJob is heavy enough to hold a worker for a while — fuel for
// overload and kill-mid-flight scenarios.
func (h *harness) slowJob() job {
	n := 2000000 + h.rng.Intn(4)*500000
	return job{Source: fmt.Sprintf(
		"int main() { int i; int s = 0; for (i = 0; i < %d; i++) { s += i %% 7; } printi(s); return 0; }", n)}
}

// pickJob returns a repeat of an answered job about a third of the
// time, otherwise fresh work.
func (h *harness) pickJob() job {
	h.mu.Lock()
	n := len(h.completed)
	var repeat job
	if n > 0 {
		repeat = h.completed[h.rng.Intn(n)]
	}
	h.mu.Unlock()
	if n > 0 && h.rng.Intn(3) == 0 {
		return repeat
	}
	return h.newJob()
}

// traffic sends n scripted requests sequentially, checking the
// per-response invariants on each.
func (h *harness) traffic(n int) {
	for i := 0; i < n; i++ {
		h.send(h.pickJob())
	}
}

// send posts one job and enforces the response-shape invariants. It
// returns the decoded body (nil on transport error, which is expected
// around kills).
func (h *harness) send(j job) map[string]any {
	srv := h.cur()
	if srv == nil {
		return nil
	}
	payload, _ := json.Marshal(j)
	resp, err := h.client.Post(srv.url()+"/v1/predict", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil // the server may be mid-kill; transport errors are not violations
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	h.mu.Lock()
	h.rep.Requests++
	h.mu.Unlock()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		h.violate("status %d with non-JSON body %.80q", resp.StatusCode, body)
		return nil
	}
	_, hasResult := m["heuristic"]
	_, hasCode := m["code"]
	if resp.StatusCode == http.StatusOK {
		h.mu.Lock()
		h.rep.Answered++
		h.mu.Unlock()
		if !hasResult || hasCode {
			h.violate("200 body mixes result and refusal: %.120q", body)
		}
		h.remember(j)
	} else {
		h.mu.Lock()
		h.rep.Refused++
		h.mu.Unlock()
		if hasResult || !hasCode {
			h.violate("status %d body mixes refusal and result: %.120q", resp.StatusCode, body)
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusGatewayTimeout) &&
			resp.Header.Get("Retry-After") == "" {
			h.violate("status %d without Retry-After", resp.StatusCode)
		}
	}
	return m
}

func (h *harness) remember(j job) {
	key := fmt.Sprintf("%s#%d", j.Source, j.Seed)
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.seen[key] {
		h.seen[key] = true
		h.completed = append(h.completed, j)
	}
}

// post hits an admin/debug endpoint; failures are tolerated around
// kills.
func (h *harness) post(path string, body []byte) bool {
	srv := h.cur()
	if srv == nil {
		return false
	}
	resp, err := h.client.Post(srv.url()+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// faultEpisode arms one scripted fault, pushes traffic through it, and
// clears it. Faults are bounded (times) so an episode cannot poison
// the rest of the run.
func (h *harness) faultEpisode() {
	stage := []string{"service.compile", "service.analyze", "service.execute"}[h.rng.Intn(3)]
	var f map[string]any
	switch h.rng.Intn(4) {
	case 0:
		f = map[string]any{"point": stage, "err": "chaos-injected", "times": 1 + h.rng.Intn(3)}
	case 1:
		f = map[string]any{"point": stage, "err": "chaos-transient", "transient": true, "times": 1 + h.rng.Intn(3)}
	case 2:
		f = map[string]any{"point": stage, "panic": "chaos-panic", "times": 1 + h.rng.Intn(2)}
	default:
		f = map[string]any{"point": stage, "hang": true, "times": 1}
	}
	payload, _ := json.Marshal(f)
	if !h.post("/debug/fault", payload) {
		return
	}
	fmt.Fprintf(h.log, "chaos: fault %s\n", payload)
	h.traffic(6 + h.rng.Intn(6))
	h.post("/debug/clearfaults", nil)
}

// overloadBurst fires concurrent slow jobs at a queue-bounded server:
// some answer, some shed with 429 — and every shed must carry
// Retry-After and must not also be answered.
func (h *harness) overloadBurst() {
	n := 16 + h.rng.Intn(16)
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = h.slowJob()
	}
	fmt.Fprintf(h.log, "chaos: overload burst of %d\n", n)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			h.send(j)
		}(j)
	}
	wg.Wait()
}

// killAndCheckSnapshot delivers SIGKILL and asserts the torn-snapshot
// invariant: whatever instant the process died, the snapshot on disk
// decodes cleanly (atomic writes never expose a partial file).
func (h *harness) killAndCheckSnapshot() {
	h.cur().kill()
	h.rep.Kills++
	fmt.Fprintf(h.log, "chaos: killed (total %d)\n", h.rep.Kills)
	path := filepath.Join(h.cfg.StateDir, durable.SnapshotName)
	_, st, err := durable.ReadSnapshotFile(path)
	if os.IsNotExist(err) {
		return // killed before the first snapshot: nothing to tear
	}
	if err != nil {
		h.violate("snapshot unreadable after kill: %v", err)
		return
	}
	if st.Truncated || st.BadMagic || st.VersionSkew || st.Skipped != 0 {
		h.violate("torn snapshot after kill: %+v", st)
	}
}

// restartAndCheckWarm boots a fresh process over the same state and
// asserts the warm-start invariant: recovered entries exist when work
// was done, and repeats of answered jobs hit the run cache at or above
// the floor.
func (h *harness) restartAndCheckWarm() error {
	if err := h.start(); err != nil {
		return err
	}
	h.rep.Restarts++
	st, ok := h.stats()
	if !ok {
		h.violate("no stats after restart")
		return nil
	}
	h.rep.Recovered += st.Durability.Warmed
	h.mu.Lock()
	n := len(h.completed)
	sample := make([]job, 0, 12)
	for i := n - 1; i >= 0 && len(sample) < cap(sample); i-- {
		sample = append(sample, h.completed[i])
	}
	h.mu.Unlock()
	if n > 0 && st.Durability.Warmed == 0 {
		h.violate("restart recovered nothing despite %d answered jobs", n)
		return nil
	}
	if st.Durability.Warmed == 0 || len(sample) == 0 {
		return nil
	}
	h.rep.WarmChecks++
	hits := 0
	for _, j := range sample {
		if m := h.send(j); m != nil {
			if cached, _ := m["run_cached"].(bool); cached {
				hits++
			}
		}
	}
	rate := float64(hits) / float64(len(sample))
	h.rep.WarmHitRate = rate
	fmt.Fprintf(h.log, "chaos: restart %d warm: %d recovered, hit rate %.2f\n",
		h.rep.Restarts, st.Durability.Warmed, rate)
	if rate < h.cfg.HitFloor {
		h.violate("warm hit rate %.2f below floor %.2f (recovered %d)",
			rate, h.cfg.HitFloor, st.Durability.Warmed)
	}
	return nil
}

func (h *harness) stats() (statsView, bool) {
	var st statsView
	srv := h.cur()
	if srv == nil {
		return st, false
	}
	resp, err := h.client.Get(srv.url() + "/v1/stats")
	if err != nil {
		return st, false
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, false
	}
	return st, true
}

// breakerDrill opens the execute-stage circuit breaker with a scripted
// burst of non-transient faults (past the consecutive-failure
// threshold) so the post-soak metrics check can assert the episode is
// visible in both /v1/stats and /metrics.
func (h *harness) breakerDrill() {
	payload, _ := json.Marshal(map[string]any{
		"point": "service.execute", "err": "chaos-breaker", "times": 32,
	})
	if !h.post("/debug/fault", payload) {
		h.violate("breaker drill: fault injection failed")
		return
	}
	fmt.Fprintf(h.log, "chaos: breaker drill\n")
	// Distinct jobs so every request reaches the faulted execute stage
	// (no run-cache hits) until the breaker opens and sheds the rest.
	for i := 0; i < 10; i++ {
		h.send(h.newJob())
	}
	h.post("/debug/clearfaults", nil)
	st, ok := h.stats()
	if !ok {
		h.violate("breaker drill: no stats")
		return
	}
	for _, b := range st.Breakers {
		if b.Name == "execute" {
			h.rep.BreakerOpens = b.Opens
			if b.Opens < 1 {
				h.violate("breaker drill: execute breaker never opened (state %s, rejected %d)",
					b.State, b.Rejected)
			}
			return
		}
	}
	h.violate("breaker drill: no execute breaker in stats")
}

// metricsCheck scrapes /metrics after the drills, lints the exposition
// format, and asserts the exported counters agree with /v1/stats: every
// breaker-open episode and every corruption skip observed by the
// harness must be visible to a Prometheus scraper.
func (h *harness) metricsCheck() {
	srv := h.cur()
	if srv == nil {
		return
	}
	resp, err := h.client.Get(srv.url() + "/metrics")
	if err != nil {
		h.violate("metrics: scrape failed: %v", err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		h.violate("metrics: read failed: %v", err)
		return
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		h.violate("metrics: content-type %q", ct)
	}
	for _, p := range obs.Lint(bytes.NewReader(body)) {
		h.violate("metrics lint: %s", p)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		h.violate("metrics: unparsable exposition: %v", err)
		return
	}
	st, ok := h.stats()
	if !ok {
		h.violate("metrics: no stats for cross-check")
		return
	}
	for _, b := range st.Breakers {
		v, found := exp.Value("ballarus_breaker_opens_total", map[string]string{"stage": b.Name})
		if !found || int64(v) != b.Opens {
			h.violate("metrics: breaker_opens_total{stage=%q} = %v (found %v), stats say %d",
				b.Name, v, found, b.Opens)
		}
		if b.Opens > 0 {
			t, _ := exp.Value("ballarus_breaker_transitions_total",
				map[string]string{"stage": b.Name, "to": "open"})
			if int64(t) < b.Opens {
				h.violate("metrics: breaker_transitions_total{stage=%q,to=open} = %v < %d opens",
					b.Name, t, b.Opens)
			}
		}
	}
	if v, found := exp.Value("ballarus_recovered_snapshot_skipped", nil); !found || int64(v) != st.Durability.SnapshotSkipped {
		h.violate("metrics: recovered_snapshot_skipped = %v (found %v), stats say %d",
			v, found, st.Durability.SnapshotSkipped)
	}
	if v, found := exp.Value("ballarus_requests_completed_total", nil); !found || int64(v) != st.Completed {
		h.violate("metrics: requests_completed_total = %v (found %v), stats say %d",
			v, found, st.Completed)
	}
	if v, found := exp.Value("ballarus_stage_duration_seconds_count",
		map[string]string{"stage": "execute"}); !found || v <= 0 {
		h.violate("metrics: no execute-stage latency histogram samples (found %v, %v)", found, v)
	}
	h.rep.MetricsScraped = true
	fmt.Fprintf(h.log, "chaos: metrics check: %d samples, breaker opens %d, skipped %d\n",
		len(exp.Samples), h.rep.BreakerOpens, st.Durability.SnapshotSkipped)
}

// corruptionDrill is the scripted bit-flip: force a snapshot, kill,
// corrupt one entry on disk, and require the next boot to skip and
// count it — never to fail.
func (h *harness) corruptionDrill() error {
	h.traffic(4)
	if !h.post("/debug/snapshot", nil) {
		h.violate("corruption drill: snapshot request failed")
		return nil
	}
	h.cur().kill()
	h.rep.Kills++
	path := filepath.Join(h.cfg.StateDir, durable.SnapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		h.violate("corruption drill: read snapshot: %v", err)
		return h.start()
	}
	entries, st, _ := durable.ReadSnapshotFile(path)
	if len(entries) == 0 || st.Skipped != 0 {
		h.violate("corruption drill: no clean entries to corrupt (%+v)", st)
		return h.start()
	}
	// Flip a bit inside the first entry's section bytes: its CRC must
	// reject exactly that entry at the next boot.
	data[8+15+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		h.violate("corruption drill: rewrite snapshot: %v", err)
		return h.start()
	}
	if err := h.start(); err != nil {
		h.violate("corruption drill: server failed to boot over corrupt snapshot: %v", err)
		return err
	}
	h.rep.Restarts++
	sv, ok := h.stats()
	if !ok {
		h.violate("corruption drill: no stats after boot")
		return nil
	}
	h.rep.Skipped = sv.Durability.SnapshotSkipped
	fmt.Fprintf(h.log, "chaos: corruption drill: %d skipped, %d recovered\n",
		sv.Durability.SnapshotSkipped, sv.Durability.Warmed)
	if sv.Durability.SnapshotSkipped < 1 {
		h.violate("corruption drill: corrupted entry not counted as skipped (%+v)", sv.Durability)
	}
	return nil
}
