// Package cluster is the replicated-serving layer: a reverse-proxy
// gateway that fronts N blserve replicas and turns their individual
// failures into non-events for clients.
//
// The gateway combines several imperfect signals about replica health
// into one reliable routing decision — the same trick the Ball–Larus
// predictor plays with per-branch heuristics:
//
//   - Active health checking: every replica's /healthz is probed on an
//     interval; Rise consecutive passes mark it healthy, Fall
//     consecutive failures mark it down.
//   - Passive outlier ejection: EjectAfter consecutive 5xx/transport
//     failures on live traffic ejects a replica for an exponentially
//     growing cool-off (EjectBase doubling up to EjectMax), so a sick
//     replica stops hurting clients between probe ticks.
//   - Hedged requests: POST /v1/predict is idempotent (the service is
//     deterministic and content-hash cached), so after the observed
//     latency quantile elapses the gateway fires one hedge at a
//     different replica; first success wins and the loser is canceled
//     through its context.
//   - Retry budget: a token bucket deposits RetryRatio tokens per
//     primary attempt and charges one per retry or hedge, so retries
//     can never amplify load past a fixed fraction of primary traffic
//     no matter how unhealthy the fleet is.
//   - Deadline propagation: the client's X-Deadline-Ms (or the
//     gateway's own Timeout) bounds every attempt, and the remaining
//     budget is re-stamped on each upstream request so a replica never
//     works past the moment the client stops caring.
//   - Brownout degradation: when every option is exhausted, the
//     last 200 body for the byte-identical request on the same route
//     is served with "degraded":true instead of an error. It is the
//     one answer left once every replica is down, and the only cache
//     the gateway keeps.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"ballarus/internal/obs"
)

// Config configures a Gateway. The zero value of every field takes the
// listed default; Replicas is required.
type Config struct {
	// Replicas are the blserve base URLs (e.g. http://127.0.0.1:8723).
	Replicas []string

	// ProbeEvery is the active health-check interval (default 1s;
	// negative disables active probing).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one /healthz probe (default 500ms).
	ProbeTimeout time.Duration
	// Rise is the consecutive probe passes that mark a replica healthy
	// (default 2).
	Rise int
	// Fall is the consecutive probe failures that mark it down
	// (default 2).
	Fall int

	// EjectAfter is the consecutive live-traffic failures (5xx or
	// transport error) that passively eject a replica (default 3).
	EjectAfter int
	// EjectBase is the first ejection's cool-off, doubling per repeat
	// ejection up to EjectMax (defaults 1s and 30s).
	EjectBase time.Duration
	EjectMax  time.Duration

	// HedgeQuantile is the latency quantile after which a hedge fires
	// (default 0.9).
	HedgeQuantile float64
	// HedgeInitial is the hedge delay used before enough latency
	// samples exist (default 50ms).
	HedgeInitial time.Duration
	// HedgeMin clamps the hedge delay from below so a fast fleet never
	// hedges instantly (default 5ms).
	HedgeMin time.Duration
	// MaxAttempts bounds total attempts per request, primary included
	// (default 3).
	MaxAttempts int

	// RetryRatio is the retry-budget deposit per primary attempt: the
	// steady-state fraction of primary traffic that retries and hedges
	// may add (default 0.2).
	RetryRatio float64
	// RetryBurst caps the banked tokens (default 10).
	RetryBurst int

	// Routing selects the replica routing policy: RoutingLeastInflight
	// (the default) or RoutingRendezvous, which shards requests across
	// replicas by their canonical content key so replica caches
	// specialize, falling back to healthy replicas on ejection/death
	// and rebalancing on readmission.
	Routing string
	// RoutingSeed seeds the least-inflight tie-break LCG; 0 derives a
	// seed from the clock. Fixed seeds make routing reproducible in
	// tests.
	RoutingSeed uint64

	// Timeout is the per-request deadline applied when the client does
	// not send X-Deadline-Ms (default 30s).
	Timeout time.Duration
	// MaxBody bounds the request body (default 4 MiB).
	MaxBody int64
	// StaleCap bounds the last-known-good brownout cache (default 256).
	StaleCap int

	// Tracer records gateway request traces; nil builds a default
	// 256-entry tracer so /debug/traces and trace assembly always work.
	Tracer *obs.Tracer
	// TraceArchive tail-samples completed traces; nil builds one with
	// obs.ArchivePolicy defaults. Errored, hedged, breaker-tripped, and
	// slow traces are always kept.
	TraceArchive *obs.Archive

	// Transport overrides the upstream round tripper (tests).
	Transport http.RoundTripper
	// Logger receives replica state-change events; nil discards them.
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ProbeEvery == 0 {
		c.ProbeEvery = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.Rise <= 0 {
		c.Rise = 2
	}
	if c.Fall <= 0 {
		c.Fall = 2
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.EjectBase <= 0 {
		c.EjectBase = time.Second
	}
	if c.EjectMax <= 0 {
		c.EjectMax = 30 * time.Second
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeInitial <= 0 {
		c.HedgeInitial = 50 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 5 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryRatio <= 0 {
		c.RetryRatio = 0.2
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 10
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 4 << 20
	}
	if c.StaleCap <= 0 {
		c.StaleCap = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// discardHandler drops every record (slog.DiscardHandler arrives in a
// newer Go than this module targets).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Gateway fronts a set of blserve replicas. Create with New, serve its
// Handler, and Close it to stop the health prober.
type Gateway struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	budget   *budget
	latency  *latencyTracker
	stale    *staleStore
	metrics  *metrics
	routing  RoutingPolicy
	tracer   *obs.Tracer
	archive  *obs.Archive

	stop     chan struct{}
	stopOnce sync.Once
	probers  sync.WaitGroup
}

// New builds a gateway over cfg.Replicas and starts the active health
// prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	seed := cfg.RoutingSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	routing, err := newRoutingPolicy(cfg.Routing, seed)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		budget:  newBudget(cfg.RetryRatio, float64(cfg.RetryBurst)),
		latency: newLatencyTracker(cfg.HedgeQuantile, cfg.HedgeInitial, cfg.HedgeMin),
		stale:   newStaleStore(cfg.StaleCap),
		routing: routing,
		tracer:  cfg.Tracer,
		archive: cfg.TraceArchive,
		stop:    make(chan struct{}),
	}
	if g.tracer == nil {
		g.tracer = obs.NewTracer(256, cfg.Logger)
	}
	if g.archive == nil {
		g.archive = obs.NewArchive(obs.ArchivePolicy{})
	}
	g.tracer.SetSource("gateway")
	g.tracer.Attach(g.archive)
	g.client = &http.Client{Transport: cfg.Transport}
	for i, raw := range cfg.Replicas {
		rep, err := newReplica(fmt.Sprintf("replica%d", i), raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		g.replicas = append(g.replicas, rep)
	}
	g.metrics = newMetrics(g)
	if cfg.ProbeEvery > 0 {
		g.probers.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// Close stops the health prober. In-flight proxied requests finish on
// their own deadlines.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.probers.Wait()
}
