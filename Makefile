# CI entry points. `make ci` is the tier-1 gate plus the race check on
# the packages the parallel experiment engine touches; it ends by
# printing `make loc`, so every PR's log carries the number.

GO ?= go

.PHONY: ci vet build test race bench bench-smoke profile experiments obs serve-smoke verify-sampling verify-opt fuzz-smoke loc

ci: vet build test race verify-opt fuzz-smoke bench-smoke serve-smoke loc

# go vet plus the gofmt gate: any file `gofmt -l` names (outside the
# benchmark's build directory) fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
		test -z "$$unformatted" || { echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Sampled-simulation calibration sweep: on a 4-workload subset spanning
# the cache-behaviour extremes, each workload's calibrated region
# schedule (internal/bench/calibration.go) must keep the full-run cycle
# estimate within its documented bound of the cycle-exact simulation —
# 2% on the default schedule, 0.5% on the phase-structured jack
# workload's tighter table entry (DESIGN.md §12). The fig5 path test
# covers the heap-size sweep axis: sampled base and monitored-auto
# estimates at the sweep's extreme heap factors. Both tests run as part
# of `make test` (they live in the root package); this target is the
# focused, verbose entry point for re-calibrating after a change to the
# sampler, the schedule table or the cost model.
verify-sampling:
	$(GO) test -run 'TestSamplingCalibration|TestSamplingFig5Path' -v .

# Optimization-framework keystones (opt_test.go): the framework-managed
# co-allocation reproduces the recorded golden corpus bit-for-bit on
# every workload, an injected regressing decision is auto-reverted
# within one assessment window for all three managed kinds (coalloc,
# codelayout, swprefetch — the latter's polluting site set under the
# pressured geometry), and the prefetch-injection ablation never
# regresses the passive baseline while improving >= 3 workloads.
# TestOptKindsPinned (opt_pin_test.go) pins what the codelayout and
# swprefetch kinds decide — cycles, counters, KindStats and the
# decision-log hash of four cells — against
# testdata/goldens/opt_kinds.json. All four tests also run under `make
# test`; this is the focused, verbose gate wired into `make ci`.
verify-opt:
	$(GO) test -run 'TestOptCoallocByteIdentical|TestOptRevertBadDecision|TestSwPrefetchAblation|TestOptKindsPinned' -v .

# Ten seconds of coverage-guided fuzzing per target, beyond the seed
# corpora `make test` already replays: FuzzOptRestore (no managed
# optimization's Restore panics on, or fails with anything but
# snap.ErrDecode for, an arbitrary component blob), FuzzDecodeSnapshot
# (the same for the snapshot container every warm start parses),
# FuzzRestoreSystem (a mutated whole snapshot restored into a freshly
# booted system: nil, snap.ErrDecode or core.ErrSnapshotMismatch, never
# a panic; its inputs are ~1 MB, so minimizing a new one is capped at
# ten runs — the default minute would eat the whole budget),
# FuzzCanonical (the cache-key contract over the Options space),
# FuzzResolve (request bytes → decodeRequest → Resolver.resolve: stable
# error codes, stable keys) and FuzzGCGraph (a seeded random object-graph
# mutation sequence under baseline/opt2 × GenMS/GenCopy in a 1 MB heap
# must checksum like its Go mirror). A crasher lands in the package's
# testdata/fuzz/ — commit it with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOptRestore$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreSystem$$' -fuzztime=10s -fuzzminimizetime=10x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCanonical$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzResolve$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzGCGraph$$' -fuzztime=10s ./internal/gc/genms

# Lines of non-test Go outside the frozen benchmark harness — the
# number simplicity PRs quote before/after in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

# Race check on the packages the parallel engine fans runs out of:
# the engine itself (and its determinism sweep), the workload
# builders it invokes concurrently, the cache hot path every
# concurrent run hammers, the observability layer host-side
# consumers snapshot while producers emit, the hpmvmd serve layer
# (single-flight cache + bounded queue under 32 concurrent handler
# requests), and the core snapshot/restore keystone (byte-identical
# warm starts across collectors and policies).
# Race instrumentation slows the workload suite well past go test's
# default 10m timeout, hence the explicit budget. The root package
# contributes the golden-equivalence subset (fop/compress/jess), which
# pins the fast-path rewrite byte-for-byte under the race detector;
# internal/opt rides along because the manager's observer callbacks run
# inside every concurrently executing monitored run.
race:
	$(GO) test -race -timeout 60m . ./internal/bench/... ./internal/core/... ./internal/hw/cache/... ./internal/obs/... ./internal/opt/... ./internal/serve/... ./internal/api/... ./internal/client/... ./internal/stats/... ./cmd/experiments/...

# End-to-end hpmvmd smoke test, run for a single server and then for a
# 2-worker process fleet: boot the daemon, run the client-based
# protocol checks (scripts/servesmoke: cache byte-identity — across
# worker processes on the fleet — warm-start dispositions, sampled
# estimates, streaming, stable error codes), on the fleet also the
# per-worker identity probe, and verify a clean SIGTERM drain of the
# whole process tree.
serve-smoke:
	sh scripts/serve_smoke.sh

# Cache hot-path microbenchmarks (BenchmarkHierarchyAccess*).
bench:
	$(GO) test -run '^$$' -bench BenchmarkHierarchy -benchtime=2s ./internal/hw/cache/

# One-iteration compile-and-run of every hot-path microbenchmark:
# catches benchmarks that rot (build breaks, panics, bad metrics)
# without paying for a statistically meaningful measurement in CI.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCPUStep|BenchmarkCPURunLoop' -benchtime=1x ./internal/hw/cpu/
	$(GO) test -run '^$$' -bench 'BenchmarkHierarchyAccess' -benchtime=1x ./internal/hw/cache/
	$(GO) test -run '^$$' -bench 'BenchmarkMemory' -benchtime=1x ./internal/hw/mem/

# CPU and heap profiles of the fig2 hot loop (the simulator's
# steady-state inner loop). Inspect with `go tool pprof cpu.prof`; see
# DESIGN.md §11 for the profiling workflow this feeds.
profile:
	$(GO) run ./cmd/experiments -exp fig2 -workloads db -reps 1 -progress=false \
		-cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof — inspect with: $(GO) tool pprof cpu.prof"

# Full paper regeneration with the perf record (see results/).
experiments:
	$(GO) run ./cmd/experiments -exp all -bench-json results/BENCH_experiments.json

# Observability smoke test: unit tests for the obs package plus an
# instrumented end-to-end sweep writing the JSON exports to a scratch
# directory.
obs:
	$(GO) test ./internal/obs/
	$(GO) run ./cmd/experiments -exp none -workloads compress \
		-metrics-json /tmp/hpmvm-obs-metrics.json -trace /tmp/hpmvm-obs-trace.json
