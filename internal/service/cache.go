package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"sync"

	"ballarus/internal/interp"
)

// flight is one in-progress or completed computation in a flightCache.
type flight[V any] struct {
	ready chan struct{} // closed when val/err are set
	val   V
	err   error
	elem  *list.Element // LRU position once completed; nil while in flight
}

// flightCache is a content-addressed cache with single-flight semantics:
// concurrent lookups of the same key share one computation. Completed
// values are kept in an LRU bounded by max entries (0 = unbounded);
// in-flight computations are pinned and never evicted. Errors are never
// cached — the failed entry is removed so a later request retries.
type flightCache[V any] struct {
	mu        sync.Mutex
	max       int
	m         map[string]*flight[V]
	order     *list.List // completed keys, front = most recently used
	evictions int64
}

func newFlightCache[V any](max int) *flightCache[V] {
	return &flightCache[V]{max: max, m: map[string]*flight[V]{}, order: list.New()}
}

// isTransient reports whether err came from cancellation rather than from
// the computation itself, so a waiter with a live context should retry
// instead of inheriting the leader's cancellation.
func isTransient(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, interp.ErrInterrupted)
}

// do returns the cached value for key, computing it with fn if absent.
// hit reports whether the value came from the cache (including joining
// another request's in-flight computation). Waiting respects ctx; the
// computation itself is the leader's and keeps running even if a waiter
// gives up.
func (c *flightCache[V]) do(ctx context.Context, key string, fn func() (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if f, ok := c.m[key]; ok {
			if f.elem != nil {
				c.order.MoveToFront(f.elem)
			}
			c.mu.Unlock()
			select {
			case <-f.ready:
				if f.err == nil {
					return f.val, true, nil
				}
				if isTransient(f.err) && ctx.Err() == nil {
					continue // the leader was cancelled, not the work; retry
				}
				return val, true, f.err
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
		}
		f := &flight[V]{ready: make(chan struct{})}
		c.m[key] = f
		c.mu.Unlock()

		f.val, f.err = fn()
		c.mu.Lock()
		if f.err != nil {
			delete(c.m, key)
		} else if c.m[key] == f { // not evicted by a racing completion
			f.elem = c.order.PushFront(key)
			c.evict()
		}
		c.mu.Unlock()
		close(f.ready)
		return f.val, false, f.err
	}
}

// peek returns key's value only if its computation has completed
// successfully: it never computes, never joins an in-flight flight,
// and never waits. A hit refreshes the entry's LRU position like do.
func (c *flightCache[V]) peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.m[key]
	if !ok || f.elem == nil {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(f.elem)
	return f.val, true
}

// evict trims completed entries beyond max, oldest first. Caller holds
// c.mu. In-flight entries are not in order and so are never evicted.
func (c *flightCache[V]) evict() {
	if c.max <= 0 {
		return
	}
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.m, back.Value.(string))
		c.evictions++
	}
}

// len returns the number of completed-or-in-flight entries.
func (c *flightCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// stats returns the entry count and cumulative evictions.
func (c *flightCache[V]) stats() cacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheSnapshot{entries: len(c.m), evictions: c.evictions, capacity: c.max}
}

// hasher builds content-hash cache keys. It streams a byte stream
// through a small fixed buffer into one SHA-256 digest: each string is
// its little-endian uint64 length then its bytes, each integer 8
// little-endian bytes, each bool one byte, and each slice its length
// then its elements. That byte stream is the durable key format — the
// warm set and every durable snapshot store their entries under these
// keys — so it must not change; TestRequestKeysStable pins it.
type hasher struct {
	d   hash.Hash
	n   int // bytes pending in buf
	buf [512]byte
}

func newHasher() *hasher { return &hasher{d: sha256.New()} }

// resumeHasher continues from a digest state saved by (*hasher).state.
func resumeHasher(state []byte) *hasher {
	h := newHasher()
	if err := h.d.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("service: bad saved digest state: " + err.Error())
	}
	return h
}

// state returns the digest state after everything written so far.
func (h *hasher) state() []byte {
	h.flush()
	b, err := h.d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("service: saving digest state: " + err.Error())
	}
	return b
}

func (h *hasher) flush() {
	h.d.Write(h.buf[:h.n])
	h.n = 0
}

func (h *hasher) str(s string) *hasher {
	h.i64(int64(len(s)))
	for len(s) > 0 {
		if h.n == len(h.buf) {
			h.flush()
		}
		c := copy(h.buf[h.n:], s)
		h.n += c
		s = s[c:]
	}
	return h
}

func (h *hasher) i64(v int64) *hasher {
	if h.n+8 > len(h.buf) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], uint64(v))
	h.n += 8
	return h
}

func (h *hasher) i64s(vs []int64) *hasher {
	h.i64(int64(len(vs)))
	for _, v := range vs {
		h.i64(v)
	}
	return h
}

func (h *hasher) bool(v bool) *hasher {
	if h.n == len(h.buf) {
		h.flush()
	}
	h.buf[h.n] = 0
	if v {
		h.buf[h.n] = 1
	}
	h.n++
	return h
}

func (h *hasher) sum() string {
	h.flush()
	return hex.EncodeToString(h.d.Sum(h.buf[:0]))
}
