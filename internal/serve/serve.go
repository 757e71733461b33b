// Package serve is the hpmvmd run service: a long-lived HTTP/JSON
// front end over the simulation stack. It accepts run requests
// (workload, heap, collector, monitoring, co-allocation, seed),
// schedules them on the internal/bench worker-pool engine, and returns
// the full result — timing, cache statistics, GC statistics,
// co-allocation pairs, and optionally the obs metrics snapshot.
//
// Because a run is fully deterministic in (workload, resolved
// core.Options, seed), the service fronts the engine with a
// content-addressed deterministic result cache: requests are
// canonicalized (bench.RunConfig.Resolve + core's canonical
// serialization), hashed, and identical requests replay the stored
// response bytes. Single-flight deduplication makes N concurrent
// identical requests cost one simulation. Production plumbing:
// per-request timeouts, cooperative cancellation threaded down to the
// VM's safepoints, a bounded queue with 429 backpressure, graceful
// drain, and /v1/healthz + /v1/statsz fed by internal/obs counters.
//
// The wire contract lives in internal/api ("v1"): every endpoint is
// rooted at /v1/ (nothing else is mounted), and every error answers
// with the api.Error envelope carrying a stable machine-readable code.
// Long runs can stream: POST /v1/stream serves the same run as
// Server-Sent Events — heartbeat progress frames, then the
// byte-identical result body.
//
// This package also houses the fleet coordinator (fleet.go): the same
// contract served by a supervisor fanning requests out over N worker
// backends with snapshot-sticky routing and queue-overflow stealing.
// Server and coordinator mount the contract through one edge (edge.go).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
	"hpmvm/internal/core"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
)

// ErrQueueFull is the sentinel returned (and mapped to HTTP 429 /
// api.CodeQueueFull) when the run queue is at capacity.
var ErrQueueFull = errors.New("serve: queue full")

// ErrDraining is returned (HTTP 503 / api.CodeDraining) once the
// server began its graceful drain and no longer accepts new runs.
var ErrDraining = errors.New("serve: draining")

// errMethod is mapped to HTTP 405 / api.CodeMethodNotAllowed.
var errMethod = errors.New("serve: POST only")

// maxRequestBody bounds a /v1/run request body.
const maxRequestBody = 1 << 20

// snapshotEntries bounds the warm-start snapshot-prefix cache.
// Snapshots are whole-machine images (megabytes each), so it is small.
const snapshotEntries = 8

// Config tunes a Server.
type Config struct {
	// Jobs is the worker-pool width (0 selects bench.DefaultJobs).
	Jobs int
	// QueueDepth bounds how many runs may be outstanding beyond the
	// worker width before new requests are rejected with ErrQueueFull
	// (0 selects 64).
	QueueDepth int
	// CacheEntries bounds the result cache (0 selects 256).
	CacheEntries int
	// Timeout caps one run's wall clock; the run is cancelled at its
	// next safepoint when exceeded (0 = no cap).
	Timeout time.Duration
}

// wlStat is the per-workload latency accounting surfaced by /v1/statsz.
type wlStat struct {
	runs   uint64
	errors uint64
	total  time.Duration
	max    time.Duration
}

// Server is the run service. Create with New, mount Handler on an
// http.Server.
type Server struct {
	cfg      Config
	engine   *bench.Engine
	obs      *obs.Observer
	resolver *Resolver
	// heartbeat is the /v1/stream progress-frame interval; tests
	// shorten it before mounting Handler.
	heartbeat time.Duration
	// runner executes one run; tests swap it to count and gate
	// executions.
	runner func(ctx context.Context, b bench.Builder, cfg bench.RunConfig, label string) (*bench.Result, error)

	// Owned obs counters (also visible in /v1/statsz).
	cRequests  *obs.Counter
	cHits      *obs.Counter
	cShared    *obs.Counter
	cMisses    *obs.Counter
	cEvictions *obs.Counter
	cRejected  *obs.Counter
	cExecuted  *obs.Counter
	cFailed    *obs.Counter
	cCancelled *obs.Counter
	cSnapHits  *obs.Counter
	cSnapStore *obs.Counter
	cSnapEvict *obs.Counter
	cStreams   *obs.Counter

	mu          sync.Mutex
	cache       *lru[string, []byte]
	snapshots   *lru[string, []byte]
	inflight    map[string]*call
	outstanding int
	draining    bool
	perWorkload map[string]*wlStat
	// perOpt accumulates decision/revert counters per managed
	// optimization kind across executed runs (cache hits replay bytes
	// and do not execute, so they do not count).
	perOpt map[string]opt.KindStats
}

// New builds a Server over the frozen workload registry. It reads the
// minimum heap and hot field each workload canonicalizes with from the
// registry's declared metadata and builds no program: a program is
// built only when a run needs it.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = bench.DefaultJobs()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	s := &Server{
		cfg:         cfg,
		engine:      bench.NewEngine(cfg.Jobs),
		obs:         obs.New(0),
		resolver:    newResolver(),
		heartbeat:   streamHeartbeat,
		cache:       newLRU[string, []byte](cfg.CacheEntries),
		snapshots:   newLRU[string, []byte](snapshotEntries),
		inflight:    make(map[string]*call),
		perWorkload: make(map[string]*wlStat),
		perOpt:      make(map[string]opt.KindStats),
	}
	s.runner = s.engineRunner
	s.cRequests = s.obs.Counter("serve.requests")
	s.cHits = s.obs.Counter("serve.cache.hits")
	s.cShared = s.obs.Counter("serve.cache.shared")
	s.cMisses = s.obs.Counter("serve.cache.misses")
	s.cEvictions = s.obs.Counter("serve.cache.evictions")
	s.cRejected = s.obs.Counter("serve.queue.rejected")
	s.cExecuted = s.obs.Counter("serve.runs.executed")
	s.cFailed = s.obs.Counter("serve.runs.failed")
	s.cCancelled = s.obs.Counter("serve.runs.cancelled")
	s.cSnapHits = s.obs.Counter("serve.snapshot.hits")
	s.cSnapStore = s.obs.Counter("serve.snapshot.stores")
	s.cSnapEvict = s.obs.Counter("serve.snapshot.evictions")
	s.cStreams = s.obs.Counter("serve.streams")
	s.obs.RegisterSampled("serve.queue.outstanding", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.outstanding)
	})
	return s
}

// Drain stops admitting new runs; /v1/run answers 503 and /v1/healthz
// flips to draining so load balancers pull the instance. In-flight
// runs finish normally (http.Server.Shutdown waits for their
// handlers).
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Handler returns the service mux: the /v1 contract (edge.go), every
// run served through the cache + single-flight front door.
func (s *Server) Handler() http.Handler {
	return (&edge{
		resolver:  s.resolver,
		heartbeat: s.heartbeat,
		run: func(ctx context.Context, _ []byte, res resolved, _ string) (*api.RunResult, error) {
			return s.runResolved(ctx, res)
		},
		healthz:   s.healthz,
		statsz:    func(context.Context) any { return s.Stats() },
		onRequest: s.cRequests.Inc,
		onStream:  s.cStreams.Inc,
	}).Handler()
}

// readBody reads one POST body, bounded by maxRequestBody.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Method != http.MethodPost {
		return nil, errMethod
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		return nil, fmt.Errorf("serve: %w: bad request body: %v", core.ErrBadOptions, err)
	}
	return body, nil
}

// RunBytes executes (or replays) one run and returns the transport
// view: the exact response bytes plus the cache/snapshot dispositions
// the X-Hpmvmd-* headers carry. It is POST /v1/run of req's JSON
// encoding without the HTTP transport. A request JSON cannot encode (a
// NaN heap factor) is a bad request, counted like one that decodes.
func (s *Server) RunBytes(ctx context.Context, req api.Request) (*api.RunResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		s.cRequests.Inc()
		return nil, fmt.Errorf("serve: %w: %v", core.ErrBadOptions, err)
	}
	return s.runBody(ctx, body)
}

// runBody is POST /v1/run of body without the HTTP transport, as the
// in-process fleet backend calls it: resolved through the memo, served
// through the cache + single-flight front door.
func (s *Server) runBody(ctx context.Context, body []byte) (*api.RunResult, error) {
	res, err := s.resolver.request(body, s.cRequests.Inc)
	if err != nil {
		return nil, err
	}
	return s.runResolved(ctx, res)
}

// runResolved serves an already-resolved request through the cache +
// single-flight front door.
func (s *Server) runResolved(ctx context.Context, res resolved) (*api.RunResult, error) {
	// snapDisp is written only when this request leads the execution
	// (the closure runs synchronously in runCached's leader path);
	// result-cache hits and shared waiters never touch the snapshot
	// layer and carry no snapshot disposition.
	var snapDisp string
	body, disposition, err := s.runCached(ctx, res.key, func(ctx context.Context) ([]byte, error) {
		b, sd, err := s.execute(ctx, res)
		snapDisp = sd
		return b, err
	})
	if err != nil {
		if isCancellation(err) {
			s.cCancelled.Inc()
		}
		return nil, err
	}
	return &api.RunResult{Body: body, Key: res.key, Cache: disposition, Snapshot: snapDisp}, nil
}

// writeRunResult renders a successful run: disposition headers plus
// the exact body bytes.
func writeRunResult(w http.ResponseWriter, res *api.RunResult) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.HeaderCache, res.Cache)
	w.Header().Set(api.HeaderKey, res.Key)
	if res.Snapshot != "" {
		w.Header().Set(api.HeaderSnapshot, res.Snapshot)
	}
	if res.Worker != "" {
		w.Header().Set(api.HeaderWorker, res.Worker)
	}
	w.Write(res.Body)
}

// execute admits one run through the bounded queue, schedules it on
// the engine with the configured timeout, and marshals the response.
// The second return is the snapshot disposition ("hit" or "store")
// for warm-started requests, "" otherwise.
func (s *Server) execute(ctx context.Context, res resolved) ([]byte, string, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, "", ErrDraining
	}
	capacity := s.cfg.Jobs + s.cfg.QueueDepth
	if s.outstanding >= capacity {
		s.mu.Unlock()
		s.cRejected.Inc()
		return nil, "", fmt.Errorf("%w: %d runs outstanding (workers %d + queue %d)",
			ErrQueueFull, capacity, s.cfg.Jobs, s.cfg.QueueDepth)
	}
	s.outstanding++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.outstanding--
		s.mu.Unlock()
	}()

	runCtx := ctx
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	start := time.Now()
	var (
		body     []byte
		snapDisp string
		err      error
	)
	if res.warmCycles > 0 {
		body, snapDisp, err = s.executeWarm(runCtx, res)
	} else {
		var result *bench.Result
		result, err = s.runner(runCtx, res.meta.builder, res.cfg, res.meta.name)
		if err == nil {
			s.recordOptStats(result)
			body, err = marshalResponse(res, result)
		}
	}
	s.recordLatency(res.meta.name, time.Since(start), err)
	if err != nil {
		if !isCancellation(err) {
			s.cFailed.Inc()
		}
		return nil, snapDisp, err
	}
	s.cExecuted.Inc()
	return body, snapDisp, nil
}

// executeWarm serves a warm-started run: obtain the prefix snapshot
// (cached or freshly computed), restore it into a fresh system and
// simulate only the tail. Both the prefix and the tail run on the
// engine, so warm requests respect the same worker-pool width as cold
// ones.
func (s *Server) executeWarm(ctx context.Context, res resolved) ([]byte, string, error) {
	snapshot, disp, err := s.snapshotFor(ctx, res)
	if err != nil {
		return nil, "", err
	}
	var result *bench.Result
	wait := s.engine.SubmitIsolated(res.meta.name+"/warm", func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, _, err := bench.RunFromSnapshot(ctx, res.meta.builder, res.cfg, snapshot)
		if err != nil {
			return err
		}
		result = r
		return nil
	})
	if err := wait(); err != nil {
		return nil, disp, err
	}
	s.recordOptStats(result)
	body, err := marshalResponse(res, result)
	return body, disp, err
}

// recordOptStats folds one executed run's per-kind optimization
// counters into the server totals surfaced by /v1/statsz.
func (s *Server) recordOptStats(r *bench.Result) {
	if len(r.Opt) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range r.Opt {
		row := s.perOpt[k.Kind]
		row.Kind = k.Kind
		row.Decisions += k.Decisions
		row.Reverts += k.Reverts
		s.perOpt[k.Kind] = row
	}
}

// snapshotFor returns the encoded prefix snapshot for res: the cached
// one when present ("hit"), else it simulates the prefix, stores the
// snapshot and returns it ("store"). Either way the caller restores
// the snapshot into a fresh system for the response, so hit and store
// produce byte-identical bodies.
func (s *Server) snapshotFor(ctx context.Context, res resolved) ([]byte, string, error) {
	s.mu.Lock()
	snapshot, ok := s.snapshots.get(res.snapKey)
	s.mu.Unlock()
	if ok {
		s.cSnapHits.Inc()
		return snapshot, "hit", nil
	}
	var enc []byte
	wait := s.engine.SubmitIsolated(res.meta.name+"/prefix", func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		enc, err = bench.RunPrefix(ctx, res.meta.builder, res.cfg, res.warmCycles)
		return err
	})
	if err := wait(); err != nil {
		return nil, "", err
	}
	s.mu.Lock()
	evicted := s.snapshots.add(res.snapKey, enc)
	s.mu.Unlock()
	s.cSnapStore.Inc()
	if evicted > 0 {
		s.cSnapEvict.Add(uint64(evicted))
	}
	return enc, "store", nil
}

// engineRunner is the production runner: one isolated, cancellable
// engine submission per request.
func (s *Server) engineRunner(ctx context.Context, b bench.Builder, cfg bench.RunConfig, label string) (*bench.Result, error) {
	h := s.engine.RunAsyncContext(ctx, b, cfg, label)
	if err := h.Wait(); err != nil {
		return nil, err
	}
	return h.Result(), nil
}

// marshalResponse renders the canonical response body. The field
// layout is fixed and every nested struct is map-free, so identical
// results marshal to identical bytes.
func marshalResponse(res resolved, r *bench.Result) ([]byte, error) {
	resp := api.RunResponse{
		Version:       api.Version,
		Workload:      res.meta.name,
		Key:           res.key,
		HeapBytes:     r.HeapBytes,
		Collector:     res.opts.Collector.String(),
		Seed:          res.opts.Seed,
		Cycles:        r.Cycles,
		Instret:       r.Instret,
		Results:       r.Results,
		Cache:         r.Cache,
		MinorGCs:      r.MinorGCs,
		MajorGCs:      r.MajorGCs,
		GCCycles:      r.GCCycles,
		CoallocPairs:  r.CoallocPairs,
		Fragmentation: r.Fragmentation,
		SamplesTaken:  r.SamplesTaken,
		Obs:           r.Obs,
	}
	if r.Instret > 0 {
		resp.CPI = float64(r.Cycles) / float64(r.Instret)
	}
	if res.opts.Monitoring {
		ms := r.MonitorStats
		resp.Monitor = &ms
	}
	if res.opts.Sampling != nil {
		resp.Sampled = true
		resp.Estimated = r.Estimated
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal response: %w", err)
	}
	return append(body, '\n'), nil
}

// recordLatency accumulates per-workload wall-clock accounting.
func (s *Server) recordLatency(name string, d time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.perWorkload[name]
	if st == nil {
		st = &wlStat{}
		s.perWorkload[name] = st
	}
	st.runs++
	st.total += d
	if d > st.max {
		st.max = d
	}
	if err != nil {
		st.errors++
	}
}

// healthz is the /v1/healthz verdict: ok while serving, not once
// draining.
func (s *Server) healthz() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, `{"status":"draining"}`
	}
	return true, `{"status":"ok"}`
}

// Stats snapshots the service counters (also served as /v1/statsz).
func (s *Server) Stats() api.Statsz {
	metrics := s.obs.Metrics() // before s.mu: the sampled closure locks it

	var st api.Statsz
	st.Version = api.Version
	s.mu.Lock()
	st.Draining = s.draining
	st.Queue.Jobs = s.cfg.Jobs
	st.Queue.Depth = s.cfg.QueueDepth
	st.Queue.Outstanding = s.outstanding
	st.Cache.Entries = s.cache.len()
	st.Cache.Capacity = s.cfg.CacheEntries
	st.Snapshots.Entries = s.snapshots.len()
	st.Snapshots.Capacity = snapshotEntries
	for name, w := range s.perWorkload {
		row := api.WorkloadLatency{
			Workload: name,
			Runs:     w.runs,
			Errors:   w.errors,
			MaxMS:    float64(w.max) / float64(time.Millisecond),
		}
		if w.runs > 0 {
			row.MeanMS = float64(w.total) / float64(w.runs) / float64(time.Millisecond)
		}
		st.Workloads = append(st.Workloads, row)
	}
	for _, row := range s.perOpt {
		st.Optimizations = append(st.Optimizations, row)
	}
	s.mu.Unlock()

	st.Cache.Hits = s.cHits.Value()
	st.Cache.Shared = s.cShared.Value()
	st.Cache.Misses = s.cMisses.Value()
	st.Cache.Evictions = s.cEvictions.Value()
	st.Snapshots.Hits = s.cSnapHits.Value()
	st.Snapshots.Stores = s.cSnapStore.Value()
	st.Snapshots.Evictions = s.cSnapEvict.Value()
	if served := st.Cache.Hits + st.Cache.Shared + st.Cache.Misses; served > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits+st.Cache.Shared) / float64(served)
	}
	sort.Slice(st.Workloads, func(i, j int) bool { return st.Workloads[i].Workload < st.Workloads[j].Workload })
	sort.Slice(st.Optimizations, func(i, j int) bool { return st.Optimizations[i].Kind < st.Optimizations[j].Kind })
	st.Counters = metrics.Counters
	return st
}

// statusFor maps service errors onto (HTTP status, stable error code).
// The table-driven TestStatusFor pins every sentinel's mapping.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, bench.ErrUnknownWorkload):
		return http.StatusNotFound, api.CodeUnknownWorkload
	case errors.Is(err, core.ErrBadOptions):
		return http.StatusBadRequest, api.CodeBadRequest
	case errors.Is(err, errMethod):
		return http.StatusMethodNotAllowed, api.CodeMethodNotAllowed
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, api.CodeQueueFull
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, api.CodeDraining
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, api.CodeTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is never seen.
		return http.StatusServiceUnavailable, api.CodeCancelled
	default:
		return http.StatusInternalServerError, api.CodeInternal
	}
}

// toAPIError wraps any service error into the api.Error envelope. An
// error that already is an envelope (a fleet relaying a worker's
// refusal) passes through unchanged, keeping the worker's code.
func toAPIError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	_, code := statusFor(err)
	out := &api.Error{Version: api.Version, Message: err.Error(), Code: code}
	if code == api.CodeQueueFull {
		out.RetryAfter = 1
	}
	return out
}

// writeAPIError renders an api.Error envelope.
func writeAPIError(w http.ResponseWriter, ae *api.Error) {
	w.Header().Set("Content-Type", "application/json")
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", ae.RetryAfter))
	}
	w.WriteHeader(api.StatusForCode(ae.Code))
	json.NewEncoder(w).Encode(ae)
}
