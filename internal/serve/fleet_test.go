package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
)

// newTestFleet builds an in-process fleet of n workers plus the fleet
// handler. Background health probing is disabled so tests control the
// healthy bits deterministically.
func newTestFleet(t *testing.T, n int, cfg Config) (*Fleet, []*Server, http.Handler) {
	t.Helper()
	backends := make([]Backend, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		servers[i] = New(cfg)
		backends[i] = NewLocalBackend(fmt.Sprintf("w%d", i), servers[i])
	}
	f, err := NewFleet(FleetConfig{Backends: backends, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, servers, f.Handler()
}

// newPinnedReq builds a run request carrying the HeaderRoute pin.
func newPinnedReq(path, body, worker string) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	req.Header.Set(api.HeaderRoute, worker)
	return req
}

// doRaw drives a prepared request through the handler.
func doRaw(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// byteIdenticalBodies are the requests TestFleetByteIdentical compares
// (and FuzzResolve starts from): exact, monitored, sampled, warm.
var byteIdenticalBodies = []string{
	`{"workload":"serve_tiny","seed":1}`,
	`{"workload":"serve_tiny","seed":2,"monitoring":true,"interval":1000}`,
	`{"workload":"serve_tiny","seed":3,"sampled":true}`,
	`{"workload":"serve_tiny","seed":4,"monitoring":true,"interval":1000,"warm_start_cycles":100000}`,
}

// TestFleetByteIdentical is the fleet keystone: a 4-worker fleet
// serves the exact bytes a single-process server serves — for exact,
// monitored, sampled and warm-started requests — both on the routed
// path and when pinned to every individual worker.
func TestFleetByteIdentical(t *testing.T) {
	single := New(Config{Jobs: 1})
	sh := single.Handler()
	_, _, fh := newTestFleet(t, 4, Config{Jobs: 1})

	for _, body := range byteIdenticalBodies {
		want := doReq(sh, nil, http.MethodPost, api.PathRun, body)
		if want.Code != http.StatusOK {
			t.Fatalf("single server: %d %s", want.Code, want.Body.String())
		}
		got := doReq(fh, nil, http.MethodPost, api.PathRun, body)
		if got.Code != http.StatusOK {
			t.Fatalf("fleet: %d %s", got.Code, got.Body.String())
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("fleet body differs from single server for %s", body)
		}
		if got.Header().Get(api.HeaderWorker) == "" {
			t.Errorf("fleet response lacks %s header", api.HeaderWorker)
		}

		// Pin the same request to every worker: all must answer the
		// identical bytes (each simulates its own cold run).
		for w := 0; w < 4; w++ {
			name := fmt.Sprintf("w%d", w)
			rr := doRaw(fh, newPinnedReq(api.PathRun, body, name))
			if rr.Code != http.StatusOK {
				t.Fatalf("pinned %s: %d %s", name, rr.Code, rr.Body.String())
			}
			if got := rr.Header().Get(api.HeaderWorker); got != name {
				t.Errorf("pinned to %s but served by %q", name, got)
			}
			if !bytes.Equal(rr.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("worker %s answers different bytes for %s", name, body)
			}
		}
	}
}

// TestFleetStickyWarmRouting pins the snapshot-affinity contract:
// warm-start requests sharing a prefix land on one worker, whose LRU
// serves the second request as a snapshot hit; every other worker's
// snapshot cache stays cold.
func TestFleetStickyWarmRouting(t *testing.T) {
	f, servers, fh := newTestFleet(t, 4, Config{Jobs: 1})

	const base = `"workload":"serve_tiny","seed":6,"monitoring":true,"interval":1000`
	w1 := doReq(fh, nil, http.MethodPost, api.PathRun, `{`+base+`,"warm_start_cycles":100000}`)
	if w1.Code != http.StatusOK {
		t.Fatalf("warm store: %d %s", w1.Code, w1.Body.String())
	}
	if got := w1.Header().Get(api.HeaderSnapshot); got != "store" {
		t.Fatalf("first warm request snapshot disposition %q, want store", got)
	}
	owner := w1.Header().Get(api.HeaderWorker)

	// Divergent cycle budget: shares the prefix, so it must be sticky-
	// routed to the owner and hit its snapshot LRU.
	w2 := doReq(fh, nil, http.MethodPost, api.PathRun, `{`+base+`,"warm_start_cycles":100000,"max_cycles":3000000}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("warm divergent: %d %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get(api.HeaderWorker); got != owner {
		t.Errorf("divergent warm request routed to %q, owner is %q (sticky routing broken)", got, owner)
	}
	if got := w2.Header().Get(api.HeaderSnapshot); got != "hit" {
		t.Errorf("divergent warm request snapshot disposition %q, want hit", got)
	}

	stores, hits := 0, 0
	for i, srv := range servers {
		st := srv.Stats()
		stores += int(st.Snapshots.Stores)
		hits += int(st.Snapshots.Hits)
		if name := fmt.Sprintf("w%d", i); name == owner {
			if st.Snapshots.Stores != 1 || st.Snapshots.Hits != 1 {
				t.Errorf("owner %s snapshots = %+v, want 1 store / 1 hit", name, st.Snapshots)
			}
		} else if st.Snapshots.Stores != 0 || st.Snapshots.Entries != 0 {
			t.Errorf("non-owner %s holds snapshots: %+v", name, st.Snapshots)
		}
	}
	if stores != 1 || hits != 1 {
		t.Errorf("fleet-wide snapshots = %d stores / %d hits, want exactly 1 / 1", stores, hits)
	}
	if st := f.Stats(context.Background()); st.Routing.Sticky != 2 {
		t.Errorf("sticky routing counter = %d, want 2", st.Routing.Sticky)
	}
}

// saturate gates srv's runner and fills all Jobs+QueueDepth admission
// slots with pinned runs of distinct keys (so single-flight cannot
// collapse them). Returns the release channel and the in-flight
// waitgroup.
func saturate(t *testing.T, fh http.Handler, f *Fleet, srv *Server, home, seedBase int) (chan struct{}, *sync.WaitGroup) {
	t.Helper()
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	origRunner := srv.runner
	srv.runner = func(ctx context.Context, b bench.Builder, cfg bench.RunConfig, label string) (*bench.Result, error) {
		running <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return origRunner(ctx, b, cfg, label)
	}
	capacity := srv.cfg.Jobs + srv.cfg.QueueDepth
	var wg sync.WaitGroup
	for i := 0; i < capacity; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			doRaw(fh, newPinnedReq(api.PathRun,
				fmt.Sprintf(`{"workload":"serve_tiny","seed":%d}`, seedBase+i),
				f.backends[home].Name()))
		}()
	}
	for i := 0; i < capacity; i++ {
		<-running
	}
	return release, &wg
}

// TestFleetStealOnQueueFull fills the home worker for a key and
// verifies the identical request is stolen to the other worker,
// answers 200, and still matches a single-server run byte for byte.
func TestFleetStealOnQueueFull(t *testing.T) {
	f, servers, fh := newTestFleet(t, 2, Config{Jobs: 1, QueueDepth: 1})

	// Find the home worker for this request key.
	const body = `{"workload":"serve_tiny","seed":42}`
	var req api.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	res, err := f.resolver.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	home := f.rendezvous(res.key)[0]
	release, wg := saturate(t, fh, f, servers[home], home, 1000)

	// The home worker is full: the routed request must be stolen to the
	// other worker and succeed.
	rr := doReq(fh, nil, http.MethodPost, api.PathRun, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("stolen request: %d %s", rr.Code, rr.Body.String())
	}
	if thief := rr.Header().Get(api.HeaderWorker); thief == f.backends[home].Name() {
		t.Errorf("request served by the saturated home worker %s", thief)
	}
	if got := f.cStolen.Load(); got != 1 {
		t.Errorf("stolen counter = %d, want 1", got)
	}

	close(release)
	wg.Wait()

	// The stolen response must match a single-server cold run bit for
	// bit.
	want := doReq(New(Config{Jobs: 1}).Handler(), nil, http.MethodPost, api.PathRun, body)
	if !bytes.Equal(rr.Body.Bytes(), want.Body.Bytes()) {
		t.Error("stolen response differs from a single-server run")
	}
}

// TestFleetWarmRefusalPropagates: a warm request whose snapshot owner
// is full is NOT stolen — the owner's queue_full envelope (with its
// retry hint) propagates so the client retries into the owner's LRU.
func TestFleetWarmRefusalPropagates(t *testing.T) {
	f, servers, fh := newTestFleet(t, 2, Config{Jobs: 1, QueueDepth: 1})

	const body = `{"workload":"serve_tiny","seed":7,"monitoring":true,"interval":1000,"warm_start_cycles":100000}`
	var req api.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	res, err := f.resolver.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.snapKey == "" {
		t.Fatal("warm request resolved without a snapshot key")
	}
	home := f.rendezvous(res.snapKey)[0]
	release, wg := saturate(t, fh, f, servers[home], home, 2000)

	rr := doReq(fh, nil, http.MethodPost, api.PathRun, body)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("warm request to full owner: %d, want 429: %s", rr.Code, rr.Body.String())
	}
	var eb api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Code != api.CodeQueueFull {
		t.Errorf("warm refusal envelope = %q (err %v)", rr.Body.String(), err)
	}
	if eb.RetryAfter <= 0 {
		t.Errorf("warm refusal lacks retry_after: %+v", eb)
	}
	if got := f.cStolen.Load(); got != 0 {
		t.Errorf("warm request was stolen %d times, want 0", got)
	}

	close(release)
	wg.Wait()
}

// TestFleetTransportFailover: a dead worker (every call fails with a
// non-envelope transport error) is marked unhealthy inline and traffic
// fails over; statsz reports the outage.
func TestFleetTransportFailover(t *testing.T) {
	good := New(Config{Jobs: 1})
	backends := []Backend{
		&deadBackend{name: "w0"},
		NewLocalBackend("w1", good),
	}
	f, err := NewFleet(FleetConfig{Backends: backends, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fh := f.Handler()

	// Enough distinct keys that at least one homes on the dead worker
	// (rendezvous hashing is deterministic, so this is stable).
	for seed := 1; seed <= 8; seed++ {
		rr := doReq(fh, nil, http.MethodPost, api.PathRun, fmt.Sprintf(`{"workload":"serve_tiny","seed":%d}`, seed))
		if rr.Code != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, rr.Code, rr.Body.String())
		}
		if rr.Header().Get(api.HeaderWorker) != "w1" {
			t.Errorf("seed %d served by %q, only w1 is alive", seed, rr.Header().Get(api.HeaderWorker))
		}
	}
	if f.healthy[0].Load() {
		t.Error("dead worker still marked healthy after transport failures")
	}
	st := f.Stats(context.Background())
	if st.PerWorker[0].Healthy || st.PerWorker[0].Error == "" {
		t.Errorf("statsz row for dead worker = %+v, want unhealthy with error", st.PerWorker[0])
	}
	if st.PerWorker[1].Statsz == nil || st.PerWorker[1].Statsz.Cache.Misses == 0 {
		t.Errorf("statsz row for live worker missing its cache stats: %+v", st.PerWorker[1])
	}
	if st.Routing.Stolen == 0 {
		t.Errorf("failover should count as steals, routing = %+v", st.Routing)
	}
}

// deadBackend fails every call with a transport-style error.
type deadBackend struct{ name string }

func (d *deadBackend) Name() string { return d.name }
func (d *deadBackend) Run(context.Context, api.Request) (*api.RunResult, error) {
	return nil, errors.New("dial tcp: connection refused")
}
func (d *deadBackend) Statsz(context.Context) (api.Statsz, error) {
	return api.Statsz{}, errors.New("dial tcp: connection refused")
}
func (d *deadBackend) Healthz(context.Context) error {
	return errors.New("dial tcp: connection refused")
}

// TestFleetPinUnknownWorker: an unknown HeaderRoute pin is a client
// error, not a routing fallback.
func TestFleetPinUnknownWorker(t *testing.T) {
	_, _, fh := newTestFleet(t, 2, Config{Jobs: 1})
	rr := doRaw(fh, newPinnedReq(api.PathRun, `{"workload":"serve_tiny","seed":1}`, "w9"))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown pin: %d, want 400: %s", rr.Code, rr.Body.String())
	}
	var eb api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Code != api.CodeBadRequest {
		t.Errorf("unknown pin envelope = %q (err %v)", rr.Body.String(), err)
	}
}

// TestFleetDrain: a draining coordinator bounces runs with the
// draining code and flips healthz.
func TestFleetDrain(t *testing.T) {
	f, _, fh := newTestFleet(t, 2, Config{Jobs: 1})
	f.Drain()
	rr := doReq(fh, nil, http.MethodPost, api.PathRun, `{"workload":"serve_tiny","seed":1}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining fleet run: %d, want 503: %s", rr.Code, rr.Body.String())
	}
	var eb api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Code != api.CodeDraining {
		t.Errorf("draining envelope = %q", rr.Body.String())
	}
	if rr := doReq(fh, nil, http.MethodGet, api.PathHealthz, ""); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d, want 503", rr.Code)
	}
}

// TestFleetStatszShape: the coordinator statsz endpoint carries the
// fleet marker, version, per-worker rows and routing counters.
func TestFleetStatszShape(t *testing.T) {
	_, _, fh := newTestFleet(t, 3, Config{Jobs: 1})
	if rr := doReq(fh, nil, http.MethodPost, api.PathRun, `{"workload":"serve_tiny","seed":1}`); rr.Code != http.StatusOK {
		t.Fatalf("prime run: %d", rr.Code)
	}
	rr := doReq(fh, nil, http.MethodGet, api.PathStatsz, "")
	var st api.FleetStatsz
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz decode: %v: %s", err, rr.Body.String())
	}
	if !st.Fleet || st.Version != api.Version || st.Workers != 3 {
		t.Errorf("fleet statsz header = fleet=%t version=%q workers=%d", st.Fleet, st.Version, st.Workers)
	}
	if len(st.PerWorker) != 3 {
		t.Fatalf("per-worker rows = %d, want 3", len(st.PerWorker))
	}
	if st.Routing.Total != 1 {
		t.Errorf("routing total = %d, want 1", st.Routing.Total)
	}
	for _, row := range st.PerWorker {
		if row.Statsz == nil || !row.Healthy {
			t.Errorf("worker row %s missing statsz or unhealthy: %+v", row.Name, row)
		}
	}
}
