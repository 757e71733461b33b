package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

func TestResultCacheLRU(t *testing.T) {
	c := newLRU[string, []byte](2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.add("a", []byte("A"))
	c.add("b", []byte("B"))
	// Touch a so b is the LRU victim.
	if body, ok := c.get("a"); !ok || string(body) != "A" {
		t.Fatalf("get(a) = %q, %t", body, ok)
	}
	if n := c.add("c", []byte("C")); n != 1 {
		t.Fatalf("add over capacity evicted %d entries, want 1", n)
	}
	if _, ok := c.get("b"); ok {
		t.Error("LRU victim b still cached")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("entry %s evicted wrongly", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Refreshing an existing key replaces the body without eviction.
	if n := c.add("a", []byte("A2")); n != 0 {
		t.Errorf("refresh evicted %d entries", n)
	}
	if body, _ := c.get("a"); string(body) != "A2" {
		t.Errorf("refresh kept stale body %q", body)
	}
}

// TestRunCachedLeaderCancelRetry orchestrates the single-flight retry:
// a waiter piles onto a leader that then aborts on its own context; the
// waiter must retry, become the new leader, succeed, and cache.
func TestRunCachedLeaderCancelRetry(t *testing.T) {
	s := New(Config{Jobs: 1, QueueDepth: 1, CacheEntries: 4})
	const key = "test-key"

	type out struct {
		body []byte
		disp string
		err  error
	}
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	aCh := make(chan out, 1)
	go func() {
		body, disp, err := s.runCached(context.Background(), key, func(context.Context) ([]byte, error) {
			close(leaderIn)
			<-leaderGo
			return nil, context.Canceled
		})
		aCh <- out{body, disp, err}
	}()
	<-leaderIn

	bCh := make(chan out, 1)
	go func() {
		body, disp, err := s.runCached(context.Background(), key, func(context.Context) ([]byte, error) {
			return []byte("ok"), nil
		})
		bCh <- out{body, disp, err}
	}()
	// Give B a moment to park on the leader's done channel; if the
	// sleep races and B arrives after the leader failed, B simply
	// becomes the first leader itself — same outcome, no flake.
	time.Sleep(20 * time.Millisecond)
	close(leaderGo)

	a := <-aCh
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("cancelled leader error = %v", a.err)
	}
	b := <-bCh
	if b.err != nil || string(b.body) != "ok" || b.disp != "miss" {
		t.Fatalf("retryer got (%q, %q, %v), want (ok, miss, nil)", b.body, b.disp, b.err)
	}

	s.mu.Lock()
	body, ok := s.cache.get(key)
	s.mu.Unlock()
	if !ok || string(body) != "ok" {
		t.Fatalf("retryer's success not cached: %q, %t", body, ok)
	}
	if body, disp, err := s.runCached(context.Background(), key, nil); err != nil || disp != "hit" || string(body) != "ok" {
		t.Fatalf("subsequent call = (%q, %q, %v), want cached hit", body, disp, err)
	}
}

// TestRunCachedWaiterOwnContext pins that a waiter whose own context
// dies stops waiting immediately instead of riding out the leader.
func TestRunCachedWaiterOwnContext(t *testing.T) {
	s := New(Config{Jobs: 1, QueueDepth: 1, CacheEntries: 4})
	const key = "waiter-key"

	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	aCh := make(chan error, 1)
	go func() {
		_, _, err := s.runCached(context.Background(), key, func(context.Context) ([]byte, error) {
			close(leaderIn)
			<-leaderGo
			return []byte("late"), nil
		})
		aCh <- err
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	bCh := make(chan error, 1)
	go func() {
		_, _, err := s.runCached(ctx, key, func(context.Context) ([]byte, error) {
			t.Error("waiter executed despite an in-flight leader")
			return nil, nil
		})
		bCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-bCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
	}

	close(leaderGo)
	if err := <-aCh; err != nil {
		t.Fatalf("leader error = %v", err)
	}
	s.mu.Lock()
	body, ok := s.cache.get(key)
	s.mu.Unlock()
	if !ok || !bytes.Equal(body, []byte("late")) {
		t.Error("leader success not cached after waiter left")
	}
}

// TestRunCachedSharesDeterministicFailure pins that a non-cancellation
// failure is shared with waiters (every identical request would fail
// identically) but never cached, so a later request re-executes.
func TestRunCachedSharesDeterministicFailure(t *testing.T) {
	s := New(Config{Jobs: 1, QueueDepth: 1, CacheEntries: 4})
	const key = "fail-key"
	boom := errors.New("boom")

	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	aCh := make(chan error, 1)
	go func() {
		_, _, err := s.runCached(context.Background(), key, func(context.Context) ([]byte, error) {
			close(leaderIn)
			<-leaderGo
			return nil, boom
		})
		aCh <- err
	}()
	<-leaderIn

	bCh := make(chan error, 1)
	go func() {
		_, _, err := s.runCached(context.Background(), key, func(context.Context) ([]byte, error) {
			return nil, boom
		})
		bCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(leaderGo)

	if err := <-aCh; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v", err)
	}
	if err := <-bCh; !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want the shared failure", err)
	}
	s.mu.Lock()
	_, ok := s.cache.get(key)
	inflight := len(s.inflight)
	s.mu.Unlock()
	if ok {
		t.Error("failure was cached")
	}
	if inflight != 0 {
		t.Errorf("%d stale inflight entries", inflight)
	}

	// A later request re-executes and may now succeed.
	body, disp, err := s.runCached(context.Background(), key, func(context.Context) ([]byte, error) {
		return []byte("recovered"), nil
	})
	if err != nil || disp != "miss" || string(body) != "recovered" {
		t.Fatalf("recovery call = (%q, %q, %v)", body, disp, err)
	}
}
