package cluster

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
)

// staleKey is the gateway's request identity, shared by the brownout
// cache and rendezvous routing: SHA-256 over the route, a NUL byte, and
// the exact body bytes. Byte identity is the only identity a proxy can
// compute with every replica down, and it never merges two requests
// that differ: no decoding, so no number or field is ever rounded away.
// Hashing the route keeps an identical body on /v1/predict and
// /v1/compare apart; the NUL keeps route and body from running together.
func staleKey(path string, body []byte) string {
	h := sha256.New()
	io.WriteString(h, path)
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// degrade marks a stored response body "degraded":true for a brownout
// read. Numbers decode as json.Number, so they re-encode with their
// exact text (an int64 exit code never passes through float64). A body
// that is not exactly one JSON object comes back unchanged.
func degrade(body []byte) []byte {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil || m == nil {
		return body
	}
	if _, err := dec.Token(); err != io.EOF {
		return body // trailing data after the object
	}
	m["degraded"] = true
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// staleStore is the gateway's last-known-good response cache: an LRU
// keyed by staleKey, holding the raw body of the most recent 200. It
// only ever serves during brownout, so the successful path stores the
// bytes as received and get pays for the "degraded" rewrite.
type staleStore struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

type staleEntry struct {
	key  string
	body []byte
}

func newStaleStore(capacity int) *staleStore {
	return &staleStore{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

// put records a successful response body for key. body must not be
// modified afterwards.
func (s *staleStore) put(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*staleEntry).body = body
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&staleEntry{key: key, body: body})
	for s.ll.Len() > s.cap {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.m, last.Value.(*staleEntry).key)
	}
}

// get returns the degraded form of the last-known-good body for key.
func (s *staleStore) get(key string) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.ll.MoveToFront(el)
	body := el.Value.(*staleEntry).body
	s.mu.Unlock()
	return degrade(body), true
}

// len reports the entry count (stats).
func (s *staleStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
