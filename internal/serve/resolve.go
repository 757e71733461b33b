package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
)

// This file is the request resolver: the one step from request body
// bytes to their decoded api.Request, its canonicalization into a
// validated bench.RunConfig + core.Options, and the content addresses
// (result-cache key, snapshot key) derived from them. It is shared by
// the single-process Server and the fleet coordinator — the
// coordinator resolves requests itself so it can reject bad ones at
// the edge and sticky-route warm starts by the exact snapshot key its
// workers will compute.

// workloadMeta is the per-workload data needed to canonicalize a
// request without executing it: the metadata the workload declared at
// registration, and the builder a run invokes.
type workloadMeta struct {
	name string
	bench.Meta
	builder bench.Builder
}

// memoEntries bounds the resolution memo and memoMaxBody is the largest
// body it keys, so its keys hold at most memoEntries × memoMaxBody =
// 1 MiB however large the bodies maxRequestBody admits. A larger body
// is decoded and resolved on every request.
const (
	memoEntries = 256
	memoMaxBody = 4 << 10
)

// Resolver canonicalizes requests over the frozen workload registry.
type Resolver struct {
	meta map[string]workloadMeta // immutable after newResolver

	// memo maps exact request body bytes to their resolution, a pure
	// function of the bytes and the frozen registry, so a hit is the
	// value a fresh decode and resolve would return. It holds
	// successes only: a body that fails to decode or resolve is never
	// stored and earns its error afresh every time.
	mu   sync.Mutex
	memo *lru[string, resolved]
}

// newResolver captures the registry's declared metadata. It builds
// nothing: a program is built only when a run needs it.
func newResolver() *Resolver {
	r := &Resolver{meta: make(map[string]workloadMeta), memo: newLRU[string, resolved](memoEntries)}
	for _, name := range bench.Names() {
		b, _ := bench.Get(name)
		m, _ := bench.MetaOf(name)
		r.meta[name] = workloadMeta{name: name, Meta: m, builder: b}
	}
	return r
}

// workloads returns the registry rows for /v1/workloads, by name. The
// registry is compiled into the binary, so a coordinator and its
// workers agree on them by construction.
func (r *Resolver) workloads() []api.WorkloadInfo {
	rows := make([]api.WorkloadInfo, 0, len(r.meta))
	for _, m := range r.meta {
		rows = append(rows, api.WorkloadInfo{Name: m.name, Description: m.Description, MinHeap: m.MinHeap, HotField: m.HotFieldName})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// decodeRequest validates and decodes one JSON request body: exactly
// one value, no unknown field, nothing but whitespace after it.
func decodeRequest(body []byte) (api.Request, error) {
	var req api.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("serve: %w: bad request body: %v", core.ErrBadOptions, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("serve: %w: bad request body: data after the request object", core.ErrBadOptions)
	}
	return req, nil
}

// request is the one step from request body bytes to a resolution:
// the memo's entry for body, or else body decoded, resolved and, on
// success, memoized. decoded runs once for every body that decodes,
// memoized or not, resolvable or not.
func (r *Resolver) request(body []byte, decoded func()) (resolved, error) {
	memo := len(body) <= memoMaxBody
	if memo {
		r.mu.Lock()
		res, ok := r.memo.get(string(body))
		r.mu.Unlock()
		if ok {
			decoded()
			return res, nil
		}
	}
	req, err := decodeRequest(body)
	if err != nil {
		return resolved{}, err
	}
	decoded()
	res, err := r.resolve(req)
	if err == nil && memo {
		r.mu.Lock()
		r.memo.add(string(body), res)
		r.mu.Unlock()
	}
	return res, err
}

// resolved is a request after canonicalization. A memoized one is
// shared by every request with the same body, so nothing downstream
// of the edge may mutate it or what its fields point to.
type resolved struct {
	meta workloadMeta
	cfg  bench.RunConfig
	opts core.Options
	key  string

	// warmCycles and snapKey are set iff the request asked for a
	// warm start; snapKey addresses the shared prefix snapshot.
	warmCycles uint64
	snapKey    string
}

// resolve canonicalizes a request: version and workload lookup, enum
// parsing, RunConfig construction, options resolution and validation,
// and the content-address the cache is keyed by.
func (r *Resolver) resolve(req api.Request) (resolved, error) {
	var res resolved
	if req.Version != "" && req.Version != api.Version {
		return res, fmt.Errorf("serve: %w: unsupported api version %q (this server speaks %q)",
			core.ErrBadOptions, req.Version, api.Version)
	}
	meta, ok := r.meta[req.Workload]
	if !ok {
		return res, fmt.Errorf("serve: %w %q", bench.ErrUnknownWorkload, req.Workload)
	}
	res.meta = meta

	cfg := bench.RunConfig{
		Heap:        req.HeapBytes,
		HeapFactor:  req.HeapFactor,
		Monitoring:  req.Monitoring,
		Interval:    req.Interval,
		Coalloc:     req.Coalloc,
		CodeLayout:  req.CodeLayout,
		SwPrefetch:  req.SwPrefetch,
		Adaptive:    req.Adaptive,
		Seed:        req.Seed,
		MaxCycles:   req.MaxCycles,
		TrackFields: req.TrackFields,
		Observe:     req.Observe,
	}
	if req.Sampled {
		if req.WarmStartCycles > 0 {
			// Reject up front rather than surfacing core's late Snapshot
			// refusal as a 500: sampled systems cannot checkpoint, so a
			// sampled warm start is a contradiction in the request.
			return res, fmt.Errorf("serve: %w: sampled=true cannot be combined with warm_start_cycles (sampled systems refuse Snapshot)", core.ErrBadOptions)
		}
		scfg := bench.CalibratedSampling(meta.name)
		cfg.Sampling = &scfg
	}
	var err error
	if cfg.Collector, err = core.ParseCollector(req.Collector); err != nil {
		return res, fmt.Errorf("serve: %w", err)
	}
	if cfg.Event, err = cache.ParseEventKind(req.Event); err != nil {
		return res, fmt.Errorf("serve: %w: %v", core.ErrBadOptions, err)
	}

	if _, err := cfg.HeapBytes(meta.MinHeap); err != nil {
		return res, fmt.Errorf("serve: %w", err)
	}
	opts := cfg.Resolve(meta.MinHeap, meta.HotFieldName)
	if err := opts.Validate(); err != nil {
		return res, err
	}
	// Invariant, not a reachable request path today: sampling may only
	// enter the options through the sampled=true branch above. A future
	// field that smuggled Options.Sampling in any other way would run
	// two-lane and cache hybrid non-exact metrics as if they were exact
	// — fail loudly instead.
	if opts.Sampling != nil && !req.Sampled {
		return res, fmt.Errorf("serve: %w: sampling configured outside the sampled=true path", core.ErrBadOptions)
	}
	if req.WarmStartCycles > 0 {
		if cfg.MaxCycles != 0 && req.WarmStartCycles >= cfg.MaxCycles {
			return res, fmt.Errorf("serve: %w: warm_start_cycles (%d) must be below max_cycles (%d)",
				core.ErrBadOptions, req.WarmStartCycles, cfg.MaxCycles)
		}
		res.warmCycles = req.WarmStartCycles
		res.snapKey = snapshotKey(meta.name, req.WarmStartCycles, cfg.Observe, opts)
	}
	res.cfg = cfg
	res.opts = opts
	res.key = requestKey(meta.name, cfg.MaxCycles, req.WarmStartCycles, cfg.Observe, opts)
	return res, nil
}

// requestKey is the content address of one run request: the workload,
// the request-level knobs that shape the response but live outside
// core.Options (cycle budget, observe), and the canonical option
// serialization. Everything that can change a single response byte is
// in here. warm_start_cycles cannot change a byte (an exact restore is
// byte-identical to the cold run) but is keyed anyway, so warm
// requests always exercise — and therefore always report — the
// snapshot path instead of aliasing a cold run's cached result.
func requestKey(workload string, maxCycles, warmCycles uint64, observe bool, opts core.Options) string {
	payload := fmt.Sprintf("workload=%s;max_cycles=%d;warm_start_cycles=%d;observe=%t;%s",
		workload, maxCycles, warmCycles, observe, opts.CanonicalString())
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:])
}

// snapshotKey is the content address of a warm-start prefix snapshot:
// the workload, the pause cycle, the observer switch (it changes the
// snapshot's component set) and the exact canonical options. Requests
// that differ only in max_cycles share the snapshot — that is the
// serve-level reuse axis — and every stored prefix replays
// byte-identically. The fleet coordinator sticky-routes on this same
// key, so all requests sharing a prefix land on the worker whose LRU
// holds the snapshot.
func snapshotKey(workload string, warmCycles uint64, observe bool, opts core.Options) string {
	payload := fmt.Sprintf("snapshot;workload=%s;warm_start_cycles=%d;observe=%t;%s",
		workload, warmCycles, observe, opts.CanonicalString())
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:])
}
