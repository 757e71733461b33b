// Package api is the versioned wire contract of the hpmvmd run
// service: the request/response/statsz types, the JSON error envelope,
// the SSE stream framing, and the path/header constants shared by the
// server (internal/serve), the fleet coordinator and the typed Go
// client (internal/client).
//
// The coordinator↔worker protocol and the public API are the same
// contract: a fleet coordinator speaks to its workers with exactly the
// types in this package, so anything a worker can serve, the fleet can
// serve, byte-for-byte.
//
// Compatibility rules (DESIGN.md §13):
//
//   - The current version is "v1", rooted at /v1/. There is no other
//     surface: the pre-v1 unversioned paths are not mounted, and this
//     package is the only home of the wire types.
//   - Within v1, fields are only ever added, never renamed, removed or
//     re-typed; new fields must be omitempty so existing cached bodies
//     stay byte-identical.
//   - Error responses always carry the Error envelope with a stable
//     machine-readable Code; clients dispatch on Code, never on the
//     human-readable message.
package api

import (
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/monitor"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
	"hpmvm/internal/stats"
)

// Version is the wire API version this package describes.
const Version = "v1"

// Versioned paths.
const (
	PathRun       = "/v1/run"
	PathStream    = "/v1/stream"
	PathHealthz   = "/v1/healthz"
	PathStatsz    = "/v1/statsz"
	PathWorkloads = "/v1/workloads"
)

// Response and routing headers.
const (
	// HeaderCache is the result-cache disposition: "hit", "shared" or
	// "miss".
	HeaderCache = "X-Hpmvmd-Cache"
	// HeaderKey is the content address (cache key) of the request.
	HeaderKey = "X-Hpmvmd-Key"
	// HeaderSnapshot is the warm-start snapshot disposition ("store"
	// or "hit"), present only on requests that led an execution with
	// warm_start_cycles set.
	HeaderSnapshot = "X-Hpmvmd-Snapshot"
	// HeaderWorker names the fleet worker that served the request;
	// absent on a single-process server.
	HeaderWorker = "X-Hpmvmd-Worker"
	// HeaderRoute, on a request to a fleet coordinator, pins the
	// request to the named worker, bypassing sticky/least-loaded
	// routing. Diagnostics only: servesmoke uses it to prove workers
	// answer byte-identically.
	HeaderRoute = "X-Hpmvmd-Route"
)

// Request is the JSON body of POST /v1/run and /v1/stream. Zero values
// select the same defaults the hpmvm CLI uses.
type Request struct {
	// Version optionally names the wire version the client speaks.
	// Empty is accepted (the path already carries the version); any
	// other mismatch with Version is rejected with CodeBadRequest.
	Version string `json:"version,omitempty"`
	// Workload names a registered benchmark program.
	Workload string `json:"workload"`
	// HeapFactor sizes the heap as a multiple of the workload's
	// calibrated minimum (0 = 4x); HeapBytes overrides it exactly.
	HeapFactor float64 `json:"heap_factor,omitempty"`
	HeapBytes  uint64  `json:"heap_bytes,omitempty"`
	// Collector is "genms" (default) or "gencopy".
	Collector string `json:"collector,omitempty"`
	// Monitoring enables HPM sampling; Interval is the hardware
	// sampling interval in events (0 = adaptive auto mode). Event is
	// "l1" (default), "l2", "dtlb" or "l1i".
	Monitoring bool   `json:"monitoring,omitempty"`
	Interval   uint64 `json:"interval,omitempty"`
	Event      string `json:"event,omitempty"`
	// Coalloc enables HPM-guided co-allocation (implies monitoring).
	Coalloc bool `json:"coalloc,omitempty"`
	// CodeLayout enables the hot/cold code-layout optimization (implies
	// monitoring; incompatible with sampled).
	CodeLayout bool `json:"codelayout,omitempty"`
	// SwPrefetch enables the software prefetch-injection optimization
	// (implies monitoring; incompatible with sampled).
	SwPrefetch bool `json:"swprefetch,omitempty"`
	// Adaptive runs AOS recording mode instead of the all-opt plan.
	Adaptive bool `json:"adaptive,omitempty"`
	// Seed drives the deterministic PRNG.
	Seed int64 `json:"seed,omitempty"`
	// MaxCycles bounds the run (0 = no bound).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TrackFields restricts the monitor time series ("Class::field").
	TrackFields []string `json:"track_fields,omitempty"`
	// Observe attaches the obs layer; the response then carries the
	// final counter/phase snapshot.
	Observe bool `json:"observe,omitempty"`
	// WarmStartCycles, when non-zero, serves the run via the
	// snapshot-prefix cache: the first WarmStartCycles simulated cycles
	// execute once per distinct configuration and are checkpointed;
	// later requests sharing the prefix restore the snapshot and
	// simulate only the tail. An exact restore is byte-identical to the
	// cold run, so the response body is unchanged — only latency and
	// the X-Hpmvmd-Snapshot header differ. Must be below max_cycles
	// when a cycle budget is set. On a fleet, warm requests are
	// sticky-routed: every request sharing a snapshot prefix lands on
	// the worker that owns the stored snapshot.
	WarmStartCycles uint64 `json:"warm_start_cycles,omitempty"`
	// Sampled runs the two-lane sampled simulator (on the workload's
	// calibrated region schedule) instead of the cycle-exact one: the
	// response gains an Estimated block — extrapolated full-run metrics
	// with 95% confidence intervals — while Cycles and the cache stats
	// then report the sampled run's own distorted counters. A sampled
	// simulation is a different simulation, so it caches under its own
	// key, never aliasing the exact result. Incompatible with
	// warm_start_cycles: sampled systems refuse Snapshot.
	Sampled bool `json:"sampled,omitempty"`
}

// RunResponse is the JSON body of a successful run. Identical requests
// produce byte-identical bodies — cold, cached, streamed, single
// process or any fleet worker — which the serve tests, the repo
// benchmark and the smoke scripts assert.
type RunResponse struct {
	Version   string `json:"version"`
	Workload  string `json:"workload"`
	Key       string `json:"key"`
	HeapBytes uint64 `json:"heap_bytes"`
	Collector string `json:"collector"`
	Seed      int64  `json:"seed"`

	Cycles  uint64  `json:"cycles"`
	Instret uint64  `json:"instret"`
	CPI     float64 `json:"cpi"`

	Results []int64     `json:"results"`
	Cache   cache.Stats `json:"cache_stats"`

	MinorGCs      uint64  `json:"minor_gcs"`
	MajorGCs      uint64  `json:"major_gcs"`
	GCCycles      uint64  `json:"gc_cycles"`
	CoallocPairs  uint64  `json:"coalloc_pairs"`
	Fragmentation float64 `json:"fragmentation"`

	Monitor      *monitor.Stats `json:"monitor,omitempty"`
	SamplesTaken uint64         `json:"samples_taken"`

	// Sampled and Estimated are set iff the request asked for a sampled
	// run: Estimated carries the extrapolated full-run point estimates
	// with their 95% confidence intervals, and the exact-looking fields
	// above (Cycles, CPI, cache_stats) hold the sampled run's own
	// distorted counters — read Estimated instead.
	Sampled   bool            `json:"sampled,omitempty"`
	Estimated *stats.Estimate `json:"estimated,omitempty"`

	Obs *obs.Metrics `json:"obs,omitempty"`
}

// RunResult is the transport-level view of one run exchange: the exact
// response bytes plus the header metadata that travels beside them.
// Fleet backends and the typed client both speak in RunResults so the
// coordinator can relay worker responses without re-marshaling — the
// byte-identity guarantee rides on Body passing through untouched.
type RunResult struct {
	// Body is the exact response body, trailing newline included.
	Body []byte
	// Key, Cache, Snapshot and Worker mirror the X-Hpmvmd-* headers.
	Key      string
	Cache    string
	Snapshot string
	Worker   string
}

// WorkloadLatency is one workload's statsz latency row.
type WorkloadLatency struct {
	Workload string  `json:"workload"`
	Runs     uint64  `json:"runs"`
	Errors   uint64  `json:"errors"`
	MeanMS   float64 `json:"mean_ms"`
	MaxMS    float64 `json:"max_ms"`
}

// Statsz is the GET /v1/statsz body of a single server (or one fleet
// worker).
type Statsz struct {
	Version  string `json:"version"`
	Draining bool   `json:"draining"`

	Queue struct {
		Jobs        int `json:"jobs"`
		Depth       int `json:"depth"`
		Outstanding int `json:"outstanding"`
	} `json:"queue"`

	Cache struct {
		Entries   int     `json:"entries"`
		Capacity  int     `json:"capacity"`
		Hits      uint64  `json:"hits"`
		Shared    uint64  `json:"shared"`
		Misses    uint64  `json:"misses"`
		Evictions uint64  `json:"evictions"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`

	Snapshots struct {
		Entries   int    `json:"entries"`
		Capacity  int    `json:"capacity"`
		Hits      uint64 `json:"hits"`
		Stores    uint64 `json:"stores"`
		Evictions uint64 `json:"evictions"`
	} `json:"snapshots"`

	Workloads []WorkloadLatency  `json:"workloads"`
	Counters  []obs.CounterValue `json:"counters"`

	// Optimizations carries one decisions/reverts counter row per
	// managed optimization kind, summed over this server's executed
	// runs (cache hits do not execute); sorted by kind, omitted until
	// a run uses the optimization framework.
	Optimizations []opt.KindStats `json:"optimizations,omitempty"`
}

// WorkerStatsz is one worker's row in a fleet statsz.
type WorkerStatsz struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Inflight int    `json:"inflight"`
	// Statsz is the worker's own statsz snapshot; nil when the worker
	// could not be reached.
	Statsz *Statsz `json:"statsz,omitempty"`
	// Error describes why Statsz is nil.
	Error string `json:"error,omitempty"`
}

// FleetStatsz is the GET /v1/statsz body of a fleet coordinator.
type FleetStatsz struct {
	Version  string `json:"version"`
	Fleet    bool   `json:"fleet"`
	Workers  int    `json:"workers"`
	Draining bool   `json:"draining"`

	Routing struct {
		// Total counts routed run requests; Sticky the ones routed by
		// snapshot-prefix affinity, Pinned the ones forced by
		// HeaderRoute, Stolen the ones moved off their hash-primary
		// because it was full or unhealthy, Rejected the ones every
		// candidate refused.
		Total    uint64 `json:"total"`
		Sticky   uint64 `json:"sticky"`
		Pinned   uint64 `json:"pinned"`
		Stolen   uint64 `json:"stolen"`
		Rejected uint64 `json:"rejected"`
	} `json:"routing"`

	PerWorker []WorkerStatsz `json:"per_worker"`

	// Optimizations sums the per-kind decision/revert counters of every
	// reachable worker; sorted by kind, omitted while zero rows exist.
	Optimizations []opt.KindStats `json:"optimizations,omitempty"`
}

// WorkloadInfo is one GET /v1/workloads row: a registered workload
// with its calibration data.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	MinHeap     uint64 `json:"min_heap"`
	HotField    string `json:"hot_field,omitempty"`
}
