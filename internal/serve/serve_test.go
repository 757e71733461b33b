package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
	"hpmvm/internal/core"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

// The serve tests register their own deterministic workloads (the
// production registry lives behind the cmd binaries' blank import and
// is absent here). Register must run in init, before New freezes the
// registry.
func init() {
	tiny := bench.Meta{MinHeap: 1 << 20}
	bench.Register("serve_tiny", tiny, func() *bench.Program {
		return loopProgram(50_000)
	})
	// serve_slow is a run long enough (billions of simulated cycles)
	// that the cancellation tests always catch it mid-simulation.
	bench.Register("serve_slow", tiny, func() *bench.Program {
		return loopProgram(2_000_000_000)
	})
	// serve_counted counts its builds (TestConstructionBuildsNothing).
	bench.Register("serve_counted", bench.Meta{Description: "counted builds", MinHeap: 1 << 20}, func() *bench.Program {
		countedBuilds.Add(1)
		return loopProgram(50_000)
	})
}

// countedBuilds is the number of times serve_counted was built.
var countedBuilds atomic.Int64

// loopProgram builds a fresh n-iteration summing loop.
func loopProgram(n int64) *bench.Program {
	u := classfile.NewUniverse()
	cl := u.DefineClass("Tiny", nil)
	main := u.AddMethod(cl, "main", false, nil, classfile.KindVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("i", classfile.KindInt)
	b.Local("s", classfile.KindInt)
	b.Label("loop")
	b.Load("i").Const(n).If(bytecode.OpIfGE, "done")
	b.Load("s").Load("i").Add().Store("s")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("done")
	b.Load("s").Result()
	b.Return()
	b.MustBuild()
	u.Layout()
	prog := &bench.Program{U: u, Entry: main}
	if n == 50_000 {
		prog.Expected = []int64{n * (n - 1) / 2}
	}
	return prog
}

// doReq drives one request through the handler. A nil ctx uses the
// request's default context.
func doReq(h http.Handler, ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func runBody(seed int) string {
	return fmt.Sprintf(`{"workload":"serve_tiny","seed":%d}`, seed)
}

// TestServeConcurrentMixed is the service's acceptance test (run under
// -race): 32 concurrent requests — 4 distinct configurations x 8
// identical requests each — drive the handler at once, verifying
//
//   - single-flight: the 8 identical requests per key cost exactly one
//     simulation (4 executions total),
//   - byte-identity: every response for a key, cold or cached, carries
//     identical bytes,
//   - cancellation: a request cancelled mid-simulation aborts with an
//     error and leaves the cache unpoisoned.
func TestServeConcurrentMixed(t *testing.T) {
	s := New(Config{Jobs: 4, QueueDepth: 64, CacheEntries: 16})
	h := s.Handler()

	const distinct, per = 4, 8
	var wg sync.WaitGroup
	var rrs [distinct][per]*httptest.ResponseRecorder
	for k := 0; k < distinct; k++ {
		for i := 0; i < per; i++ {
			k, i := k, i
			wg.Add(1)
			go func() {
				defer wg.Done()
				rrs[k][i] = doReq(h, nil, http.MethodPost, api.PathRun, runBody(k+1))
			}()
		}
	}
	wg.Wait()

	bodies := make([][]byte, distinct)
	for k := 0; k < distinct; k++ {
		for i := 0; i < per; i++ {
			rr := rrs[k][i]
			if rr.Code != http.StatusOK {
				t.Fatalf("key %d req %d: status %d: %s", k, i, rr.Code, rr.Body.String())
			}
			switch d := rr.Header().Get("X-Hpmvmd-Cache"); d {
			case "hit", "shared", "miss":
			default:
				t.Fatalf("key %d req %d: bad cache disposition %q", k, i, d)
			}
			if i == 0 {
				bodies[k] = rr.Body.Bytes()
				continue
			}
			if !bytes.Equal(rr.Body.Bytes(), bodies[k]) {
				t.Errorf("key %d req %d: body differs from request 0 of the same key", k, i)
			}
		}
	}
	for k := 1; k < distinct; k++ {
		if bytes.Equal(bodies[k], bodies[0]) {
			t.Errorf("distinct seeds %d and 1 produced identical bodies", k+1)
		}
	}

	// Single-flight: 8 identical requests per key, one simulation each.
	if got := s.cExecuted.Value(); got != distinct {
		t.Errorf("executed %d simulations for %d distinct keys (single-flight broken)", got, distinct)
	}
	if got := s.cMisses.Value(); got != distinct {
		t.Errorf("cache misses = %d, want %d", got, distinct)
	}
	if shared := s.cHits.Value() + s.cShared.Value(); shared != distinct*(per-1) {
		t.Errorf("hits+shared = %d, want %d", shared, distinct*(per-1))
	}

	// Cold vs cached byte-identity: a fresh request for each key must
	// replay the exact bytes the cold run produced.
	for k := 0; k < distinct; k++ {
		rr := doReq(h, nil, http.MethodPost, api.PathRun, runBody(k+1))
		if rr.Code != http.StatusOK {
			t.Fatalf("cached key %d: status %d", k, rr.Code)
		}
		if rr.Header().Get("X-Hpmvmd-Cache") != "hit" {
			t.Errorf("cached key %d: disposition %q, want hit", k, rr.Header().Get("X-Hpmvmd-Cache"))
		}
		if !bytes.Equal(rr.Body.Bytes(), bodies[k]) {
			t.Errorf("cached key %d: bytes differ from cold response", k)
		}
	}

	// Cancellation mid-simulation: serve_slow runs for billions of
	// simulated cycles; cancel its request shortly after dispatch. The
	// handler must come back with a cancellation status and the slow
	// key must not enter the cache.
	ctx, cancel := context.WithCancel(context.Background())
	slow := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		slow <- doReq(h, ctx, http.MethodPost, api.PathRun, `{"workload":"serve_slow","seed":1}`)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	rr := <-slow
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled slow run: status %d, want 503: %s", rr.Code, rr.Body.String())
	}
	if got := s.cCancelled.Value(); got == 0 {
		t.Error("cancelled-run counter did not advance")
	}
	st := s.Stats()
	if st.Cache.Entries != distinct {
		t.Errorf("cache holds %d entries after cancelled run, want %d (cancellation must not cache)",
			st.Cache.Entries, distinct)
	}
}

// TestCancelledRequestDoesNotPoisonCache pins the full retry story: a
// request whose context is already dead fails without caching anything,
// and the next identical request runs cold and then caches normally.
func TestCancelledRequestDoesNotPoisonCache(t *testing.T) {
	s := New(Config{Jobs: 2, QueueDepth: 8, CacheEntries: 8})
	h := s.Handler()
	body := runBody(99)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr := doReq(h, ctx, http.MethodPost, api.PathRun, body)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-cancelled request: status %d, want 503", rr.Code)
	}
	if st := s.Stats(); st.Cache.Entries != 0 {
		t.Fatalf("cancelled request cached %d entries", st.Cache.Entries)
	}

	cold := doReq(h, nil, http.MethodPost, api.PathRun, body)
	if cold.Code != http.StatusOK || cold.Header().Get("X-Hpmvmd-Cache") != "miss" {
		t.Fatalf("retry after cancel: status %d disposition %q, want 200/miss",
			cold.Code, cold.Header().Get("X-Hpmvmd-Cache"))
	}
	warm := doReq(h, nil, http.MethodPost, api.PathRun, body)
	if warm.Code != http.StatusOK || warm.Header().Get("X-Hpmvmd-Cache") != "hit" {
		t.Fatalf("second retry: status %d disposition %q, want 200/hit",
			warm.Code, warm.Header().Get("X-Hpmvmd-Cache"))
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("cached bytes differ from cold bytes")
	}
}

// TestQueueFullBackpressure fills the bounded queue through a blocked
// runner and verifies the next request bounces with 429 + Retry-After
// while the admitted ones complete once unblocked.
func TestQueueFullBackpressure(t *testing.T) {
	s := New(Config{Jobs: 1, QueueDepth: 1, CacheEntries: 8})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s.runner = func(ctx context.Context, b bench.Builder, cfg bench.RunConfig, label string) (*bench.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &bench.Result{Program: label}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	h := s.Handler()

	// Capacity is Jobs+QueueDepth = 2: admit two distinct runs.
	results := make(chan *httptest.ResponseRecorder, 2)
	for seed := 1; seed <= 2; seed++ {
		seed := seed
		go func() {
			results <- doReq(h, nil, http.MethodPost, api.PathRun, runBody(seed))
		}()
	}
	<-started
	<-started

	rr := doReq(h, nil, http.MethodPost, api.PathRun, runBody(3))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") != "1" {
		t.Errorf("429 without Retry-After header")
	}
	if got := s.cRejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if rr := <-results; rr.Code != http.StatusOK {
			t.Errorf("admitted request %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
	}
}

// TestDrain pins the graceful-drain contract: after Drain, /run and
// /healthz answer 503 so the load balancer pulls the instance, and
// /statsz reports the draining state.
func TestDrain(t *testing.T) {
	s := New(Config{Jobs: 1, QueueDepth: 1})
	h := s.Handler()
	s.Drain()

	if rr := doReq(h, nil, http.MethodPost, api.PathRun, runBody(1)); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("/run while draining: status %d, want 503", rr.Code)
	}
	rr := doReq(h, nil, http.MethodGet, api.PathHealthz, "")
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "draining") {
		t.Errorf("/healthz while draining: status %d body %q", rr.Code, rr.Body.String())
	}
	var st api.Statsz
	if err := json.Unmarshal(doReq(h, nil, http.MethodGet, api.PathStatsz, "").Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if !st.Draining {
		t.Error("/statsz does not report draining")
	}
}

func TestBadRequests(t *testing.T) {
	_, _, fh := newTestFleet(t, 2, Config{})
	handlers := map[string]http.Handler{"server": New(Config{}).Handler(), "fleet": fh}
	cases := []struct {
		name   string
		method string
		body   string
		status int
		code   string
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"malformed json", http.MethodPost, `{`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown field", http.MethodPost, `{"workload":"serve_tiny","bogus":1}`, http.StatusBadRequest, api.CodeBadRequest},
		{"bad api version", http.MethodPost, `{"workload":"serve_tiny","version":"v0"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown workload", http.MethodPost, `{"workload":"nope"}`, http.StatusNotFound, api.CodeUnknownWorkload},
		{"unknown collector", http.MethodPost, `{"workload":"serve_tiny","collector":"zgc"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown event", http.MethodPost, `{"workload":"serve_tiny","event":"l9"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"coalloc on gencopy", http.MethodPost, `{"workload":"serve_tiny","collector":"gencopy","coalloc":true}`, http.StatusBadRequest, api.CodeBadRequest},
		{"negative heap factor", http.MethodPost, `{"workload":"serve_tiny","heap_factor":-1}`, http.StatusBadRequest, api.CodeBadRequest},
		{"heap factor rounding to 0 bytes", http.MethodPost, `{"workload":"serve_tiny","heap_factor":1e-9}`, http.StatusBadRequest, api.CodeBadRequest},
		{"heap factor overflowing uint64", http.MethodPost, `{"workload":"serve_tiny","heap_factor":1e30}`, http.StatusBadRequest, api.CodeBadRequest},
		{"second value after the request", http.MethodPost, `{"workload":"serve_tiny"}{"workload":"serve_slow"}`, http.StatusBadRequest, api.CodeBadRequest},
	}
	for owner, h := range handlers {
		for _, path := range []string{api.PathRun, api.PathStream} {
			for _, tc := range cases {
				rr := doReq(h, nil, tc.method, path, tc.body)
				if rr.Code != tc.status {
					t.Errorf("%s %s %s: status %d, want %d: %s", owner, path, tc.name, rr.Code, tc.status, rr.Body.String())
				}
				var eb api.Error
				if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Message == "" {
					t.Errorf("%s %s %s: error response is not the JSON envelope: %q", owner, path, tc.name, rr.Body.String())
				} else if eb.Code != tc.code {
					t.Errorf("%s %s %s: code %q, want %q", owner, path, tc.name, eb.Code, tc.code)
				}
			}
		}
	}
}

// TestStatusFor pins the sentinel→(status, code) table: the codes are
// the machine-readable wire contract, so a remapping is a breaking
// change.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"unknown workload", fmt.Errorf("x: %w", bench.ErrUnknownWorkload), http.StatusNotFound, api.CodeUnknownWorkload},
		{"bad options", fmt.Errorf("x: %w", core.ErrBadOptions), http.StatusBadRequest, api.CodeBadRequest},
		{"method", errMethod, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"queue full", fmt.Errorf("%w: 65 outstanding", ErrQueueFull), http.StatusTooManyRequests, api.CodeQueueFull},
		{"draining", ErrDraining, http.StatusServiceUnavailable, api.CodeDraining},
		{"timeout", context.DeadlineExceeded, http.StatusGatewayTimeout, api.CodeTimeout},
		{"cancel", context.Canceled, http.StatusServiceUnavailable, api.CodeCancelled},
		{"run failure", fmt.Errorf("simulation exploded"), http.StatusInternalServerError, api.CodeInternal},
	}
	for _, tc := range cases {
		status, code := statusFor(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("%s: statusFor = (%d, %q), want (%d, %q)", tc.name, status, code, tc.status, tc.code)
		}
		if got := api.StatusForCode(code); got != tc.status {
			t.Errorf("%s: StatusForCode(%q) = %d disagrees with statusFor's %d", tc.name, code, got, tc.status)
		}
		ae := toAPIError(tc.err)
		if ae.Code != tc.code {
			t.Errorf("%s: toAPIError code %q, want %q", tc.name, ae.Code, tc.code)
		}
		if (tc.code == api.CodeQueueFull) != (ae.RetryAfter > 0) {
			t.Errorf("%s: retry_after %d inconsistent with code %q", tc.name, ae.RetryAfter, ae.Code)
		}
	}
}

// TestUnversionedPathsGone pins that /v1 is the only surface: the
// pre-v1 unversioned paths are not mounted on either handler set.
func TestUnversionedPathsGone(t *testing.T) {
	_, _, fleet := newTestFleet(t, 1, Config{Jobs: 1})
	handlers := map[string]http.Handler{"server": New(Config{Jobs: 1}).Handler(), "fleet": fleet}
	cases := []struct{ method, path, body string }{
		{http.MethodPost, "/run", runBody(11)},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/statsz", ""},
		{http.MethodGet, "/workloads", ""},
	}
	for name, h := range handlers {
		for _, tc := range cases {
			if rr := doReq(h, nil, tc.method, tc.path, tc.body); rr.Code != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", name, tc.path, rr.Code)
			}
		}
	}
}

func TestStatszAndWorkloads(t *testing.T) {
	s := New(Config{Jobs: 2, QueueDepth: 4, CacheEntries: 4})
	h := s.Handler()
	if rr := doReq(h, nil, http.MethodPost, api.PathRun, runBody(5)); rr.Code != http.StatusOK {
		t.Fatalf("run: status %d: %s", rr.Code, rr.Body.String())
	}

	var st api.Statsz
	if err := json.Unmarshal(doReq(h, nil, http.MethodGet, api.PathStatsz, "").Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if st.Cache.Misses != 1 || st.Cache.Entries != 1 || st.Cache.Capacity != 4 {
		t.Errorf("statsz cache = %+v, want 1 miss, 1 entry, capacity 4", st.Cache)
	}
	if st.Queue.Jobs != 2 || st.Queue.Depth != 4 {
		t.Errorf("statsz queue = %+v", st.Queue)
	}
	found := false
	for _, w := range st.Workloads {
		if w.Workload == "serve_tiny" && w.Runs == 1 && w.Errors == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("statsz missing serve_tiny latency row: %+v", st.Workloads)
	}
	if len(st.Counters) == 0 {
		t.Error("statsz carries no obs counters")
	}

	wl := doReq(h, nil, http.MethodGet, api.PathWorkloads, "").Body.String()
	for _, name := range []string{"serve_tiny", "serve_slow"} {
		if !strings.Contains(wl, name) {
			t.Errorf("/workloads missing %s: %s", name, wl)
		}
	}

	if rr := doReq(h, nil, http.MethodGet, api.PathHealthz, ""); rr.Code != http.StatusOK {
		t.Errorf("/healthz: status %d", rr.Code)
	}
}

// TestConstructionBuildsNothing pins that servers and the coordinator
// read the workloads' declared metadata instead of building programs:
// constructing them and listing the registry build nothing, and one
// cache miss builds the program it runs exactly once.
func TestConstructionBuildsNothing(t *testing.T) {
	before := countedBuilds.Load()
	_, servers, h := newTestFleet(t, 2, Config{Jobs: 1})
	for _, hh := range []http.Handler{h, servers[0].Handler()} {
		rr := doReq(hh, nil, http.MethodGet, api.PathWorkloads, "")
		if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "counted builds") {
			t.Fatalf("/v1/workloads: status %d: %s", rr.Code, rr.Body.String())
		}
	}
	if n := countedBuilds.Load() - before; n != 0 {
		t.Fatalf("New, NewFleet and /v1/workloads built serve_counted %d times, want 0", n)
	}
	rr := doReq(h, nil, http.MethodPost, api.PathRun, `{"workload":"serve_counted","seed":1}`)
	if rr.Code != http.StatusOK || rr.Header().Get(api.HeaderCache) != "miss" {
		t.Fatalf("run: status %d, cache %q: %s", rr.Code, rr.Header().Get(api.HeaderCache), rr.Body.String())
	}
	if n := countedBuilds.Load() - before; n != 1 {
		t.Errorf("one /v1/run miss built serve_counted %d times, want 1", n)
	}
}

// TestResponseShape decodes one response and sanity-checks the fields
// the quickstart documents.
func TestResponseShape(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rr := doReq(h, nil, http.MethodPost, api.PathRun, `{"workload":"serve_tiny","seed":2,"monitoring":true,"interval":1000}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp api.RunResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != api.Version || resp.Workload != "serve_tiny" || resp.Seed != 2 {
		t.Errorf("echo fields wrong: %+v", resp)
	}
	if resp.Cycles == 0 || resp.Instret == 0 || resp.CPI <= 0 {
		t.Errorf("timing fields empty: cycles %d instret %d cpi %f", resp.Cycles, resp.Instret, resp.CPI)
	}
	if len(resp.Results) != 1 || resp.Results[0] != 50_000*49_999/2 {
		t.Errorf("results = %v", resp.Results)
	}
	if resp.Monitor == nil {
		t.Error("monitoring requested but monitor stats absent")
	}
	if resp.Key != rr.Header().Get("X-Hpmvmd-Key") {
		t.Error("body key differs from X-Hpmvmd-Key header")
	}
}

// TestRunBytesUnencodable: a request JSON cannot encode (a NaN heap
// factor) is a bad request through RunBytes, as a heap factor that
// sizes no heap is through /v1/run.
func TestRunBytesUnencodable(t *testing.T) {
	s := New(Config{Jobs: 1})
	_, err := s.RunBytes(context.Background(), api.Request{Workload: "serve_tiny", HeapFactor: math.NaN()})
	if !errors.Is(err, core.ErrBadOptions) || toAPIError(err).Code != api.CodeBadRequest {
		t.Fatalf("NaN heap factor: %v, want a bad_request wrapping core.ErrBadOptions", err)
	}
}
