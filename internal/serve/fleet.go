package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/core"
	"hpmvm/internal/opt"
)

// This file is the fleet coordinator: the same /v1 wire contract as a
// single Server, served by fanning requests out over N worker backends
// — in-process Servers or remote hpmvmd -worker processes reached
// through internal/client; the coordinator cannot tell them apart
// because both speak api.RunResult.
//
// Routing (DESIGN.md §13):
//
//   - Every request has a sticky key: the warm-start snapshot key when
//     warm_start_cycles is set, else the result-cache key. Rendezvous
//     hashing over (sticky key, worker name) ranks the workers; the
//     top-ranked healthy worker is the request's home. Identical
//     requests therefore always meet the same worker's result cache,
//     and every request sharing a warm-start prefix lands on the
//     worker whose snapshot LRU holds that prefix.
//   - When a non-warm home worker refuses with queue_full (or is
//     unreachable), the request is stolen: retried on the remaining
//     healthy workers in least-loaded order. Warm requests are never
//     stolen — rebuilding a multi-megabyte snapshot on a second worker
//     costs more than waiting out the 429 — so the owner's refusal
//     propagates with its Retry-After.
//   - Because runs are deterministic and workers share no mutable
//     state, a steal can never change a response byte; servesmoke's
//     per-worker probe and TestFleetByteIdentical pin this.
//
// Byte-identity: the coordinator relays worker response bodies
// verbatim (api.RunResult.Body), adding only the X-Hpmvmd-Worker
// header — a fleet of any size answers byte-identically to one Server.

// Backend is one worker the coordinator can route to. *client.Client
// (remote worker process) and *LocalBackend (in-process Server)
// implement it.
type Backend interface {
	// Name identifies the worker in routing, headers and statsz.
	Name() string
	// Run executes one request and returns the exact response bytes
	// plus header metadata. Refusals arrive as *api.Error (the worker's
	// envelope, code intact); any other error is a transport failure.
	Run(ctx context.Context, req api.Request) (*api.RunResult, error)
	// Statsz fetches the worker's own statsz snapshot.
	Statsz(ctx context.Context) (api.Statsz, error)
	// Healthz reports liveness.
	Healthz(ctx context.Context) error
}

// LocalBackend adapts an in-process *Server to the Backend interface:
// the Backend tests and probes substitute for a worker process.
type LocalBackend struct {
	name string
	srv  *Server
}

// NewLocalBackend wraps srv as a named backend.
func NewLocalBackend(name string, srv *Server) *LocalBackend {
	return &LocalBackend{name: name, srv: srv}
}

// Name implements Backend.
func (l *LocalBackend) Name() string { return l.name }

// Run implements Backend; errors are wrapped in the api.Error envelope
// so the coordinator dispatches on codes exactly as it does for remote
// workers.
func (l *LocalBackend) Run(ctx context.Context, req api.Request) (*api.RunResult, error) {
	res, err := l.srv.RunBytes(ctx, req)
	if err != nil {
		return nil, toAPIError(err)
	}
	return res, nil
}

// Statsz implements Backend.
func (l *LocalBackend) Statsz(context.Context) (api.Statsz, error) { return l.srv.Stats(), nil }

// Healthz implements Backend.
func (l *LocalBackend) Healthz(context.Context) error {
	if ok, _ := l.srv.healthz(); !ok {
		return ErrDraining
	}
	return nil
}

// FleetConfig tunes a Fleet.
type FleetConfig struct {
	// Backends are the workers; at least one is required.
	Backends []Backend
	// HealthInterval is the background health-probe period (0 = 2s,
	// negative = no background probing; routing failures still mark
	// workers unhealthy inline, and without the probe nothing marks
	// them healthy again — routing only returns to one once every
	// worker looks down and the top-ranked is tried regardless).
	HealthInterval time.Duration
}

// statszTimeout bounds one worker's statsz fetch.
const statszTimeout = 2 * time.Second

// Fleet is the coordinator. Create with NewFleet, mount Handler on an
// http.Server, Close when done.
type Fleet struct {
	cfg      FleetConfig
	backends []Backend
	resolver *Resolver

	healthy  []atomic.Bool
	inflight []atomic.Int64
	draining atomic.Bool

	cTotal    atomic.Uint64
	cSticky   atomic.Uint64
	cPinned   atomic.Uint64
	cStolen   atomic.Uint64
	cRejected atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
}

// NewFleet builds a coordinator over cfg.Backends and starts the
// background health loop.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("serve: fleet needs at least one backend")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if seen[b.Name()] {
			return nil, fmt.Errorf("serve: duplicate fleet backend name %q", b.Name())
		}
		seen[b.Name()] = true
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	f := &Fleet{
		cfg:      cfg,
		backends: cfg.Backends,
		resolver: newResolver(),
		healthy:  make([]atomic.Bool, len(cfg.Backends)),
		inflight: make([]atomic.Int64, len(cfg.Backends)),
		stop:     make(chan struct{}),
	}
	for i := range f.healthy {
		f.healthy[i].Store(true)
	}
	if cfg.HealthInterval > 0 {
		go f.healthLoop()
	}
	return f, nil
}

// Close stops the background health loop.
func (f *Fleet) Close() { f.stopOnce.Do(func() { close(f.stop) }) }

// Drain stops admitting new runs; the workers are drained by their own
// SIGTERM (the supervisor forwards it).
func (f *Fleet) Drain() { f.draining.Store(true) }

// healthLoop probes every backend and flips the healthy bits; a worker
// marked unhealthy by an inline transport failure is revived here once
// it answers again (e.g. after the supervisor restarted it).
func (f *Fleet) healthLoop() {
	ticker := time.NewTicker(f.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			for i, b := range f.backends {
				ctx, cancel := context.WithTimeout(context.Background(), f.cfg.HealthInterval)
				err := b.Healthz(ctx)
				cancel()
				f.healthy[i].Store(err == nil)
			}
		}
	}
}

// rendezvous ranks backend indices for key: highest hash first. Every
// coordinator instance computes the same ranking, so routing is stable
// across restarts and across coordinators.
func (f *Fleet) rendezvous(key string) []int {
	type rank struct {
		idx int
		h   uint64
	}
	ranks := make([]rank, len(f.backends))
	for i, b := range f.backends {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{0})
		h.Write([]byte(b.Name()))
		ranks[i] = rank{i, h.Sum64()}
	}
	sort.Slice(ranks, func(a, b int) bool {
		if ranks[a].h != ranks[b].h {
			return ranks[a].h > ranks[b].h
		}
		return ranks[a].idx < ranks[b].idx
	})
	out := make([]int, len(ranks))
	for i, r := range ranks {
		out[i] = r.idx
	}
	return out
}

// backendByName resolves a HeaderRoute pin.
func (f *Fleet) backendByName(name string) (int, bool) {
	for i, b := range f.backends {
		if b.Name() == name {
			return i, true
		}
	}
	return -1, false
}

// runOn executes req on backend i with inflight accounting.
func (f *Fleet) runOn(ctx context.Context, i int, req api.Request) (*api.RunResult, error) {
	f.inflight[i].Add(1)
	defer f.inflight[i].Add(-1)
	res, err := f.backends[i].Run(ctx, req)
	if err != nil {
		return nil, err
	}
	res.Worker = f.backends[i].Name()
	return res, nil
}

// isRefusal reports whether err is a worker's enveloped refusal that a
// different worker might accept (full queue or draining).
func isRefusal(err error) bool {
	var ae *api.Error
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Code == api.CodeQueueFull || ae.Code == api.CodeDraining
}

// route serves one resolved request: pick the home worker, steal on
// refusal, fail over on transport errors.
func (f *Fleet) route(ctx context.Context, req api.Request, res resolved, pin string) (*api.RunResult, error) {
	if f.draining.Load() {
		return nil, ErrDraining
	}
	f.cTotal.Add(1)

	if pin != "" {
		i, ok := f.backendByName(pin)
		if !ok {
			return nil, fmt.Errorf("serve: %w: unknown worker %q in %s header",
				core.ErrBadOptions, pin, api.HeaderRoute)
		}
		f.cPinned.Add(1)
		return f.runOn(ctx, i, req)
	}

	warm := res.snapKey != ""
	sticky := res.key
	if warm {
		sticky = res.snapKey
		f.cSticky.Add(1)
	}
	order := f.rendezvous(sticky)

	// Home worker: the top-ranked healthy candidate (or the top-ranked
	// one outright when everything looks down — the inline health bits
	// can be stale, so trying beats refusing).
	home := order[0]
	for _, i := range order {
		if f.healthy[i].Load() {
			home = i
			break
		}
	}

	result, err := f.runOn(ctx, home, req)
	if err == nil {
		return result, nil
	}
	if ctx.Err() != nil {
		// The caller went away; nothing below can help.
		return nil, err
	}
	transport := false
	if !isRefusal(err) {
		var ae *api.Error
		if errors.As(err, &ae) {
			// A request-level error (bad request, run failure): every
			// worker answers identically, relay it.
			return nil, err
		}
		// Transport failure: the worker is gone until the health loop
		// or supervisor revives it.
		f.healthy[home].Store(false)
		transport = true
	}

	if warm && !transport {
		// The snapshot owner is refusing with a full queue. Stealing
		// would rebuild the prefix elsewhere and defeat the LRU;
		// propagate the 429 and let the client retry into the owner.
		f.cRejected.Add(1)
		return nil, err
	}

	// Steal: remaining candidates, healthiest and least-loaded first.
	rest := make([]int, 0, len(order)-1)
	for _, i := range order {
		if i != home && f.healthy[i].Load() {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool {
		return f.inflight[rest[a]].Load() < f.inflight[rest[b]].Load()
	})
	lastErr := err
	for _, i := range rest {
		result, err := f.runOn(ctx, i, req)
		if err == nil {
			f.cStolen.Add(1)
			return result, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if !isRefusal(err) {
			var ae *api.Error
			if errors.As(err, &ae) {
				return nil, err
			}
			f.healthy[i].Store(false)
		}
		lastErr = err
	}
	f.cRejected.Add(1)
	var ae *api.Error
	if !errors.As(lastErr, &ae) {
		return nil, &api.Error{
			Version: api.Version,
			Message: fmt.Sprintf("serve: no worker reachable: %v", lastErr),
			Code:    api.CodeUnavailable,
		}
	}
	return nil, lastErr
}

// Handler returns the coordinator mux: the same /v1 contract a single
// Server serves (edge.go), every run routed to a worker.
func (f *Fleet) Handler() http.Handler {
	noCount := func() {}
	return (&edge{
		resolver:  f.resolver,
		heartbeat: streamHeartbeat,
		run:       f.route,
		healthz:   f.healthz,
		statsz:    func(ctx context.Context) any { return f.Stats(ctx) },
		onRequest: noCount,
		onStream:  noCount,
	}).Handler()
}

// healthz is the /v1/healthz verdict: ok while at least one worker is
// believed healthy and the coordinator is not draining.
func (f *Fleet) healthz() (bool, string) {
	if f.draining.Load() {
		return false, `{"status":"draining"}`
	}
	up := 0
	for i := range f.healthy {
		if f.healthy[i].Load() {
			up++
		}
	}
	if up == 0 {
		return false, `{"status":"no workers"}`
	}
	return true, fmt.Sprintf(`{"status":"ok","workers":%d}`, up)
}

// Stats aggregates the fleet view: coordinator routing counters plus
// every worker's own statsz.
func (f *Fleet) Stats(ctx context.Context) api.FleetStatsz {
	var st api.FleetStatsz
	st.Version = api.Version
	st.Fleet = true
	st.Workers = len(f.backends)
	st.Draining = f.draining.Load()
	st.Routing.Total = f.cTotal.Load()
	st.Routing.Sticky = f.cSticky.Load()
	st.Routing.Pinned = f.cPinned.Load()
	st.Routing.Stolen = f.cStolen.Load()
	st.Routing.Rejected = f.cRejected.Load()
	perOpt := make(map[string]opt.KindStats)
	for i, b := range f.backends {
		row := api.WorkerStatsz{
			Name:     b.Name(),
			Healthy:  f.healthy[i].Load(),
			Inflight: int(f.inflight[i].Load()),
		}
		sctx, cancel := context.WithTimeout(ctx, statszTimeout)
		ws, err := b.Statsz(sctx)
		cancel()
		if err != nil {
			row.Error = err.Error()
		} else {
			row.Statsz = &ws
			for _, k := range ws.Optimizations {
				sum := perOpt[k.Kind]
				sum.Kind = k.Kind
				sum.Decisions += k.Decisions
				sum.Reverts += k.Reverts
				perOpt[k.Kind] = sum
			}
		}
		st.PerWorker = append(st.PerWorker, row)
	}
	for _, sum := range perOpt {
		st.Optimizations = append(st.Optimizations, sum)
	}
	sort.Slice(st.Optimizations, func(i, j int) bool { return st.Optimizations[i].Kind < st.Optimizations[j].Kind })
	return st
}
