# CI entry points. `make ci` is the tier-1 gate plus the race check on
# the packages the parallel experiment engine touches; it ends by
# printing `make loc`, so every PR's log carries the number.

GO ?= go

.PHONY: ci vet build test race bench bench-smoke bench-pairs profile experiments obs serve-smoke verify-opt verify-lanes fuzz-smoke loc traffic

ci: vet build test race verify-opt verify-lanes fuzz-smoke bench-smoke serve-smoke loc

# go vet, the gofmt gate — any file `gofmt -l` names (outside the
# benchmark's build directory) fails the target — and the inlining
# gate: the simulator's inlinable lanes, Hierarchy.Hit and mem's
# Load*/Store*, must still inline. A lane that grows past Go's
# inlining budget silently becomes a call, and no test would notice.
INLINE_LANES = '(*Hierarchy).Hit' '(*Memory).Load8' '(*Memory).Load4' '(*Memory).Load2' \
	'(*Memory).Load1' '(*Memory).Store8' '(*Memory).Store4' '(*Memory).Store2' '(*Memory).Store1'
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
		test -z "$$unformatted" || { echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; }
	@inl=$$($(GO) build -gcflags=-m ./internal/hw/cache ./internal/hw/mem 2>&1) || { echo "$$inl"; exit 1; }; \
		for f in $(INLINE_LANES); do \
			echo "$$inl" | grep -qF "can inline $$f" || { echo "inlining gate: $$f no longer inlines"; exit 1; }; \
		done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Lane keystone on every workload: each exact lane of a lane pass
# (bench.RunLanes) — 250, 500, 1000 and auto × 3 reps, the Figure 2
# grid — must equal its separate monitored run in cycles, monitor.Stats
# and PEBS unit stats, and the pass's baseline the separate unmonitored
# run. `make test` runs the same test on jess, antlr and compress.
# About 1.5 minutes on 2 cores.
verify-lanes:
	$(GO) test -run '^TestLanesMatchSeparateRuns$$' -timeout 30m -v . -lanes-all

# Optimization-framework keystones (opt_test.go): the framework-managed
# co-allocation reproduces the recorded golden corpus bit-for-bit on
# every workload, an injected regressing decision is auto-reverted
# within one assessment window for all three managed kinds (coalloc,
# codelayout, swprefetch — the latter's polluting site set under the
# pressured geometry), and the prefetch-injection ablation never
# regresses the passive baseline while improving >= 3 workloads.
# TestOptKindsPinned (opt_pin_test.go) pins what the codelayout and
# swprefetch kinds decide — cycles, counters, KindStats and the hash of
# four cells' rendered decision records — against
# testdata/goldens/opt_kinds.json. TestCanonicalStringsPinned
# (canonical_pin_test.go) pins the canonical option string — what every
# fingerprint and cache key hashes — of every configuration the repo
# builds against testdata/canonical_pin.json. The opt Manager's
# decision records are held to three more: TestObserveCycleIdentical
# (internal/bench; KindStats, the opt.<kind>.* counters and the traced
# decisions agree, db's Figure 8 run included), TestWarmStartKeepsRecords
# (internal/bench; that run resumed between its intervention and its
# revert ends with the cold run's records) and TestManagerRestoreRefuses
# (internal/opt; a record's kind index and verdict are checked on
# restore). All eight tests also run under `make test`; this is the
# focused, verbose gate wired into `make ci`.
verify-opt:
	$(GO) test -run 'TestOptCoallocByteIdentical|TestOptRevertBadDecision|TestSwPrefetchAblation|TestOptKindsPinned|TestCanonicalStringsPinned|TestObserveCycleIdentical|TestWarmStartKeepsRecords|TestManagerRestoreRefuses' -v . ./internal/bench ./internal/opt

# Ten seconds of coverage-guided fuzzing per target, beyond the seed
# corpora `make test` already replays: FuzzOptRestore (no managed
# optimization's Restore, nor the opt Manager's for its decision
# records, panics on, or fails with anything but snap.ErrDecode for, an
# arbitrary component blob), FuzzDecodeSnapshot
# (the same for the snapshot container every warm start parses),
# FuzzRestoreSystem (a mutated whole snapshot restored into a freshly
# booted system: nil, snap.ErrDecode or core.ErrSnapshotMismatch, never
# a panic; its inputs are ~1 MB, so minimizing a new one is capped at
# ten runs — the default minute would eat the whole budget),
# FuzzCanonical (the cache-key contract over the Options space),
# FuzzResolve (request bytes → decodeRequest → Resolver.resolve: stable
# error codes, stable keys), FuzzGCGraph (a seeded random object-graph
# mutation sequence under baseline/opt2 × GenMS/GenCopy in a 1 MB heap
# must checksum like its Go mirror) and FuzzStreamDecoder (the SSE
# decoder the client reads /v1/stream through: no panic on any bytes,
# an error exactly when a line reaches the cap, written frames
# round-trip). A crasher lands in the package's testdata/fuzz/ — commit
# it with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOptRestore$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreSystem$$' -fuzztime=10s -fuzzminimizetime=10x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCanonical$$' -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzResolve$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzGCGraph$$' -fuzztime=10s ./internal/gc/genms
	$(GO) test -run '^$$' -fuzz '^FuzzStreamDecoder$$' -fuzztime=10s ./internal/api

# Coverage census of the hardware model under real traffic: builds
# cmd/hpmvm with `go build -cover`, runs every workload plain and with
# -coalloc -interval 250, plus db, jess and compress with each of
# -adaptive, -collector gencopy and -coalloc -codelayout -swprefetch,
# and prints every internal/hw block no run executed
# (file:line.col,line.col statements). A fast path listed here serves
# no traffic. hpmvm has no sampled mode, so the functional lane
# (cache.Hierarchy.SetFunctional, warmAccess) always reads as untouched.
# About a minute on two cores; not part of `make ci`.
traffic:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -cover -o "$$dir/hpmvm" ./cmd/hpmvm && \
	mkdir "$$dir/cov" && export GOCOVERDIR="$$dir/cov" && \
	for w in $$("$$dir/hpmvm" -list | awk '{print $$1}'); do \
		"$$dir/hpmvm" -workload $$w >/dev/null && \
		"$$dir/hpmvm" -workload $$w -coalloc -interval 250 >/dev/null || exit 1; \
	done && \
	for w in db jess compress; do \
		for args in -adaptive "-collector gencopy" "-coalloc -codelayout -swprefetch"; do \
			"$$dir/hpmvm" -workload $$w $$args >/dev/null || exit 1; \
		done; \
	done && \
	$(GO) tool covdata textfmt -i="$$dir/cov" -o "$$dir/cov.txt" && \
	awk 'NR > 1 && $$1 ~ /\/internal\/hw\// { n[$$1] += $$3; s[$$1] = $$2 } \
		END { for (b in n) if (n[b] == 0) print b, s[b] }' "$$dir/cov.txt" | sort >"$$dir/zero.txt" && \
	cat "$$dir/zero.txt" && echo "$$(wc -l <"$$dir/zero.txt") zero-count blocks under internal/hw/"

# Lines of non-test Go outside the frozen benchmark harness and the
# benchmark's build directory (where bench-pairs exports the parent) —
# the number simplicity PRs quote before/after in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

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

# Cache hot-path microbenchmarks (BenchmarkHierarchyAccess*, BenchmarkHierarchyHitLane).
bench:
	$(GO) test -run '^$$' -bench BenchmarkHierarchy -benchtime=2s ./internal/hw/cache/

# One-iteration compile-and-run of every hot-path microbenchmark (the
# simulator's, plus the canonical key every hpmvmd request computes):
# catches benchmarks that rot (build breaks, panics, bad metrics)
# without paying for a statistically meaningful measurement in CI.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCPUStep|BenchmarkCPURunLoop' -benchtime=1x ./internal/hw/cpu/
	$(GO) test -run '^$$' -bench 'BenchmarkHierarchyAccess|BenchmarkHierarchyHitLane' -benchtime=1x ./internal/hw/cache/
	$(GO) test -run '^$$' -bench 'BenchmarkMemory' -benchtime=1x ./internal/hw/mem/
	$(GO) test -run '^$$' -bench 'BenchmarkCanonicalString' -benchtime=1x ./internal/core/

# Alternating parent/change pairs of one workload of the repo benchmark,
# the measurement behind every speed claim (scripts/benchpairs): pair i
# runs at seed i, the order alternates, and the summary gives per
# end-to-end metric the pairs ahead, each side's median and quartiles
# and the BENCHMARK.json bound. Exits 1 on a sim_cycles mismatch,
# a metric beyond its bound or a failed run. About 40 s per sim-* pair;
# not part of `make ci`.
#
#	make bench-pairs PARENT=HEAD~1 WORKLOAD=sim-exact PAIRS=10
WORKLOAD ?= sim-exact
PAIRS ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [WORKLOAD=sim-exact] [PAIRS=10]"; exit 2; }
	$(GO) run ./scripts/benchpairs -parent "$(PARENT)" -workload "$(WORKLOAD)" -pairs "$(PAIRS)"

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
