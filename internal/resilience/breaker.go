package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's admission state.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed admits everything (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects everything until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe requests; one
	// success closes the breaker, one failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// ErrCircuitOpen is wrapped into every breaker rejection. Rejections
// also classify as ErrOverload.
var ErrCircuitOpen = errors.New("circuit breaker open")

// BreakerPolicy configures a Breaker.
type BreakerPolicy struct {
	// Threshold is the number of consecutive tripping failures that
	// opens the breaker; <= 0 disables the breaker entirely.
	Threshold int
	// Cooldown is how long an open breaker rejects before going
	// half-open; <= 0 means the default. A half-open breaker admits
	// exactly one in-flight probe, so a thundering herd arriving at the
	// end of a cooldown cannot re-saturate a recovering dependency.
	Cooldown time.Duration
	// OnTransition, when non-nil, observes every state change. It is
	// called with the breaker's internal lock held, so it must be fast
	// and must not call back into the breaker.
	OnTransition func(name string, from, to BreakerState)
}

// DefaultBreaker opens after 5 consecutive failures and probes again
// after 5 seconds.
var DefaultBreaker = BreakerPolicy{Threshold: 5, Cooldown: 5 * time.Second}

// Breaker is a closed/open/half-open circuit breaker. Safe for
// concurrent use; a nil Breaker admits everything.
type Breaker struct {
	name string
	pol  BreakerPolicy
	now  func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive tripping failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	gen      uint64    // bumped on every transition; stale probe outcomes are discarded
	opens    int64     // cumulative closed/half-open → open transitions
	rejected int64     // cumulative rejections
}

// NewBreaker creates a breaker. Zero policy fields take defaults, except
// Threshold: a non-positive threshold disables the breaker.
func NewBreaker(name string, pol BreakerPolicy) *Breaker {
	if pol.Cooldown <= 0 {
		pol.Cooldown = DefaultBreaker.Cooldown
	}
	return &Breaker{name: name, pol: pol, now: time.Now}
}

// Allow asks to admit one request. On admission it returns a non-nil
// done func that MUST be called exactly once with whether the request
// tripped (see Trips). On rejection done is nil and err wraps both
// ErrCircuitOpen and ErrOverload.
func (b *Breaker) Allow() (done func(tripped bool), err error) {
	if b == nil || b.pol.Threshold <= 0 {
		return func(bool) {}, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.pol.Cooldown {
			b.rejected++
			return nil, Overloaded(fmt.Errorf("%w: %s", ErrCircuitOpen, b.name))
		}
		b.transition(BreakerHalfOpen)
		fallthrough
	case BreakerHalfOpen:
		// Exactly one in-flight probe: a herd arriving at the end of the
		// cooldown gets one representative; the rest stay rejected until
		// the probe settles.
		if b.probing {
			b.rejected++
			return nil, Overloaded(fmt.Errorf("%w: %s (half-open, probe in flight)", ErrCircuitOpen, b.name))
		}
		b.probing = true
		gen := b.gen
		return func(tripped bool) { b.settleProbe(gen, tripped) }, nil
	default:
		return b.settle, nil
	}
}

// settle records the outcome of a request admitted while closed.
func (b *Breaker) settle(tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed {
		return // the breaker moved on while this request ran
	}
	if !tripped {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= b.pol.Threshold {
		b.open()
	}
}

// settleProbe records the outcome of the half-open probe admitted at
// generation gen. A probe that settles after the breaker has already
// moved on (reopened and gone half-open again, say) is stale: acting on
// it would release a probe slot it no longer owns, so it is discarded.
func (b *Breaker) settleProbe(gen uint64, tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen || b.state != BreakerHalfOpen {
		return
	}
	b.probing = false
	if tripped {
		b.open()
	} else {
		b.transition(BreakerClosed)
		b.failures = 0
	}
}

// open transitions to BreakerOpen. Caller holds b.mu.
func (b *Breaker) open() {
	b.transition(BreakerOpen)
	b.openedAt = b.now()
	b.opens++
	b.failures = 0
}

// transition moves to state to, notifying the policy hook on an actual
// change. Caller holds b.mu.
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	b.gen++
	b.probing = false
	if b.pol.OnTransition != nil {
		b.pol.OnTransition(b.name, from, to)
	}
}

// State returns the breaker's current admission state.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStats is a point-in-time snapshot of one breaker.
type BreakerStats struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Failures int    `json:"consecutive_failures"`
	Opens    int64  `json:"opens"`
	Rejected int64  `json:"rejected"`
}

// Stats snapshots the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{State: BreakerClosed.String()}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		Name:     b.name,
		State:    b.state.String(),
		Failures: b.failures,
		Opens:    b.opens,
		Rejected: b.rejected,
	}
}
