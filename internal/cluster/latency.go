package cluster

import (
	"slices"
	"sync"
	"time"
)

// latencySamples is the ring size backing the hedge-delay quantile: big
// enough to smooth bursts, small enough to track a shifting baseline.
const latencySamples = 256

// latencyMinData is how many observations the tracker wants before it
// trusts its quantile over the configured initial delay.
const latencyMinData = 16

// latencyTracker estimates the hedge delay from recent successful
// request latencies: hedging at the p90 (by default) means ~10% of
// requests hedge — the slow tail — which is exactly the population
// hedging helps.
type latencyTracker struct {
	quantile float64
	initial  time.Duration
	min      time.Duration

	mu      sync.Mutex
	samples [latencySamples]time.Duration // ring, in arrival order
	sorted  [latencySamples]time.Duration // the same count samples, ascending
	next    int
	count   int
}

func newLatencyTracker(quantile float64, initial, min time.Duration) *latencyTracker {
	return &latencyTracker{quantile: quantile, initial: initial, min: min}
}

// observe records one successful attempt's latency, keeping the
// sorted copy of the window in step with the ring: the evicted sample
// is binary-searched out and the new one inserted in place.
func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sorted := t.sorted[:t.count]
	if t.count == latencySamples {
		i, _ := slices.BinarySearch(sorted, t.samples[t.next])
		sorted = slices.Delete(sorted, i, i+1)
	} else {
		t.count++
	}
	i, _ := slices.BinarySearch(sorted, d)
	sorted = sorted[:len(sorted)+1]
	copy(sorted[i+1:], sorted[i:])
	sorted[i] = d
	t.samples[t.next] = d
	t.next = (t.next + 1) % latencySamples
}

// delay returns how long to wait before firing a hedge: the tracked
// quantile of the last latencySamples successful latencies, clamped
// from below by min, or the configured initial delay while data is
// thin. It indexes the sorted window and never allocates.
func (t *latencyTracker) delay() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count < latencyMinData {
		return t.initial
	}
	idx := int(float64(t.count) * t.quantile)
	if idx >= t.count {
		idx = t.count - 1
	}
	return max(t.sorted[idx], t.min)
}
