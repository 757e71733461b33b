package serve

import (
	"container/list"
	"context"
	"errors"
)

// This file implements the deterministic result cache: an LRU-bounded
// map from canonical request fingerprint to the exact marshaled
// response bytes, fronted by single-flight deduplication. Runs are
// fully deterministic in their canonical key (see core's cache-key
// contract), so replaying stored bytes is indistinguishable from
// re-simulating — byte-identical by construction, and N concurrent
// identical requests cost one simulation.

// lruEntry is one cached value.
type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// lru is a plain LRU map, the one shape behind the result cache, the
// snapshot-prefix cache and the Resolver's resolution memo. Not safe
// for concurrent use; each owner serializes access under its mutex.
type lru[K comparable, V any] struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[K]*list.Element
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

// get returns the cached value and marks the entry most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add inserts (or refreshes) an entry and returns how many entries
// were evicted to stay within capacity.
func (c *lru[K, V]) add(key K, val V) int {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return 0
	}
	c.m[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	evicted := 0
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*lruEntry[K, V]).key)
		evicted++
	}
	return evicted
}

func (c *lru[K, V]) len() int { return c.ll.Len() }

// call is one in-flight single-flight execution. body and err are
// written before done is closed; waiters read them only after done.
type call struct {
	done chan struct{}
	body []byte
	err  error
}

// runCached is the cache + single-flight front door. It returns the
// response bytes for key, the cache disposition ("hit", "shared",
// "miss"), and an error.
//
//   - A cached key replays the stored bytes ("hit").
//   - A key already executing makes this request wait for the leader's
//     result ("shared") — N concurrent identical requests simulate
//     once.
//   - Otherwise this request becomes the leader and runs exec ("miss");
//     a successful body is stored for future hits.
//
// Cancellation cannot poison the cache: only a successful exec stores
// a body, and a leader that aborts on its own context wakes its
// waiters to retry — the first retryer becomes the new leader under
// its own, still-live context. A waiter whose own ctx dies stops
// waiting immediately.
func (s *Server) runCached(ctx context.Context, key string, exec func(context.Context) ([]byte, error)) ([]byte, string, error) {
	for {
		s.mu.Lock()
		if body, ok := s.cache.get(key); ok {
			s.mu.Unlock()
			s.cHits.Inc()
			return body, "hit", nil
		}
		if c, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-c.done:
				if c.err == nil {
					s.cShared.Inc()
					return c.body, "shared", nil
				}
				if isCancellation(c.err) {
					// The leader was cancelled, not the run refuted:
					// retry — the result may now be cached by another
					// leader, or we become the leader ourselves.
					continue
				}
				// Deterministic run failure: every identical request
				// would fail identically, so share the error.
				return nil, "miss", c.err
			case <-ctx.Done():
				return nil, "miss", ctx.Err()
			}
		}
		c := &call{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		body, err := exec(ctx)

		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			s.cMisses.Inc()
			if n := s.cache.add(key, body); n > 0 {
				s.cEvictions.Add(uint64(n))
			}
		}
		s.mu.Unlock()
		c.body, c.err = body, err
		close(c.done)
		return body, "miss", err
	}
}

// isCancellation reports whether err stems from a cancelled or expired
// context rather than from the simulation itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
