package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
	"hpmvm/internal/client"
	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/hw/mem"
	"hpmvm/internal/opt"
	"hpmvm/internal/serve"
	"hpmvm/internal/stats"
)

// The probes attribute host time to layers from outside: each times a batch
// of calls into one layer's public functions between two reference brackets,
// or takes the difference of two such timings where a layer has no callable
// boundary of its own. They do not depend on the workload being traced.

// probeCycles bounds the simulated cells the differential probes run: long
// enough for thousands of samples on db, short enough for a traced run to
// stay well inside the driver's time limit.
const probeCycles = 60_000_000

// scaled shrinks a probe's batch under -quick.
func (e *env) scaled(n int) int {
	if e.quick {
		n /= 20
	}
	if n < 1 {
		n = 1
	}
	return n
}

// timed runs f between two reference brackets and returns its
// drift-corrected duration in nanoseconds.
func (e *env) timed(f func()) float64 {
	before := e.ref.bracket()
	start := time.Now()
	f()
	raw := float64(time.Since(start))
	return correct(raw, between(before, e.ref.bracket()))
}

// perCall times n calls made by loop and returns corrected ns per call.
func (e *env) perCall(n int, loop func(n int)) float64 {
	n = e.scaled(n)
	return e.timed(func() { loop(n) }) / float64(n)
}

// cell simulates one program under cfg up to the probe budget and returns
// the corrected host nanoseconds per simulated instruction with the run.
func (e *env) cell(ctx context.Context, program string, cfg bench.RunConfig) (float64, simRun) {
	b, err := bench.Lookup(program)
	if !e.rep.check(err == nil, "%v", err) {
		return 0, simRun{}
	}
	stopAt := uint64(probeCycles)
	if e.quick {
		stopAt = quickCycles
	}
	before := e.ref.bracket()
	run, err := runSim(ctx, nil, b, cfg, e.ref, stopAt)
	if !e.rep.check(err == nil, "probe %s: %v", program, err) || run.instret == 0 {
		return 0, run
	}
	w := run.inside
	w.add(before)
	w.add(e.ref.bracket())
	return correct(run.runNS, w) / float64(run.instret), run
}

func (e *env) runProbes(ctx context.Context) {
	e.probeCPU()
	e.probeCache()
	e.probeMem()
	e.probeSimCells(ctx)
	e.probeVM(ctx)
	e.probeSnapshot(ctx)
	e.probeEngine(ctx)
	e.probeAPI()
	e.probeServe(ctx)
}

// probeCPU meters the interpreter on the loop BenchmarkCPURunLoop uses:
// arithmetic, two loads (one of them a fused AddImm+Ld8 pair) and a branch.
func (e *env) probeCPU() {
	newLoop := func() *cpu.CPU {
		c := cpu.New(mem.New(), cache.New(cache.DefaultP4()), cpu.DefaultConfig())
		base := c.NextCodeAddr()
		loop := base + 2*cpu.InstrBytes
		c.InstallCode([]cpu.Instr{
			{Op: cpu.OpMovImm, Rd: 3, Imm: 0x8000},
			{Op: cpu.OpSt8, Rs1: 3, Imm: 0, Rs2: 3},
			{Op: cpu.OpLd8, Rd: 4, Rs1: 3, Imm: 0},
			{Op: cpu.OpAdd, Rd: 2, Rs1: 2, Rs2: 4},
			{Op: cpu.OpAddImm, Rd: 5, Rs1: 3, Imm: 8},
			{Op: cpu.OpLd8, Rd: 6, Rs1: 5, Imm: 0},
			{Op: cpu.OpAddImm, Rd: 1, Rs1: 1, Imm: 1},
			{Op: cpu.OpBrGE, Rs1: 1, Rs2: cpu.RegZero, Imm: int64(loop)},
		})
		c.SP = 0x0200_0000 - 8
		c.Mem.Write8(c.SP, 0)
		c.PC = base
		return c
	}
	c := newLoop()
	e.rep.set("cpu.runloop_ns_per_instr", e.perCall(4_000_000, func(n int) { c.Run(uint64(n)) }))
	c = newLoop()
	e.rep.set("cpu.step_ns_per_instr", e.perCall(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			c.Step()
		}
	}))
}

// nullListener receives hardware events and drops them.
type nullListener struct{ events uint64 }

func (l *nullListener) HardwareEvent(cache.EventKind, uint64) { l.events++ }

// userCPU tells the software-prefetch model that user code is running.
type userCPU struct{}

func (userCPU) SamplePC() uint64 { return 0 }
func (userCPU) UserMode() bool   { return true }

// probeCache meters the memory hierarchy's entry points.
func (e *env) probeCache() {
	const hot = 0x1000
	hit := func(h *cache.Hierarchy) func(int) {
		h.Access(hot, 8, false)
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Access(hot, 8, false)
			}
		}
	}
	e.rep.set("cache.hit_ns", e.perCall(2_000_000, hit(cache.New(cache.DefaultP4()))))

	h := cache.New(cache.DefaultP4())
	h.SetListener(&nullListener{})
	e.rep.set("cache.hit_listener_ns", e.perCall(2_000_000, hit(h)))

	h = cache.New(cache.DefaultP4())
	h.SetFunctional(2)
	e.rep.set("cache.functional_ns", e.perCall(2_000_000, hit(h)))

	// Every access misses the DTLB, L1 and L2 and trains the prefetcher.
	h = cache.New(cache.DefaultP4())
	e.rep.set("cache.miss_ns", e.perCall(300_000, func(n int) {
		addr := uint64(0)
		for i := 0; i < n; i++ {
			h.Access(addr, 8, false)
			addr += 4096*33 + 128
		}
	}))

	// Instruction fetch across a code footprint four times the I-cache.
	h = cache.New(cache.DefaultP4())
	h.EnableICache(2048, 2)
	line := uint64(h.Config().LineSize)
	e.rep.set("cache.ifetch_ns", e.perCall(1_000_000, func(n int) {
		addr := uint64(0)
		for i := 0; i < n; i++ {
			h.IFetch(addr)
			addr = (addr + line) & (8192 - 1)
		}
	}))

	h = cache.New(cache.DefaultP4())
	h.EnableSwPrefetch(userCPU{}, 1)
	e.rep.set("cache.swprefetch_ns", e.perCall(500_000, func(n int) {
		addr := uint64(0)
		for i := 0; i < n; i++ {
			h.SoftwarePrefetch(addr)
			addr += line
		}
	}))
}

// probeMem meters simulated memory over a 64 KB region (sixteen pages, so
// the page memo is exercised, not just its first slot).
func (e *env) probeMem() {
	m := mem.New()
	const base, region = 0x10000, 64 * 1024 // address 0 is the null page
	for a := uint64(0); a < region; a += 8 {
		m.Write8(base+a, a)
	}
	var sink uint64
	e.rep.set("mem.load_ns", e.perCall(4_000_000, func(n int) {
		off := uint64(0)
		for i := 0; i < n; i++ {
			sink += m.Read8(base + off)
			off = (off + 4104) & (region - 8)
		}
	}))
	e.rep.set("mem.store_ns", e.perCall(4_000_000, func(n int) {
		off := uint64(0)
		for i := 0; i < n; i++ {
			m.Write8(base+off, uint64(i))
			off = (off + 4104) & (region - 8)
		}
	}))
	_ = sink
}

// probeSimCells takes the differentials that isolate layers with no
// callable boundary: the same db prefix under growing configurations.
func (e *env) probeSimCells(ctx context.Context) {
	rep := e.rep
	exact, _ := e.cell(ctx, "db", bench.RunConfig{Seed: e.seed})
	mon, monRun := e.cell(ctx, "db", bench.RunConfig{Monitoring: true, Interval: monitoredInterval, Seed: e.seed})
	co, _ := e.cell(ctx, "db", bench.RunConfig{Coalloc: true, Interval: monitoredInterval, Seed: e.seed})
	all, allRun := e.cell(ctx, "db", bench.RunConfig{Coalloc: true, CodeLayout: true, SwPrefetch: true, Interval: monitoredInterval, Seed: e.seed})
	gencopy, _ := e.cell(ctx, "db", bench.RunConfig{Collector: core.GenCopy, Seed: e.seed})
	adaptive, _ := e.cell(ctx, "jess", bench.RunConfig{Adaptive: true, Seed: e.seed})

	if monRun.pebs.SamplesTaken > 0 {
		rep.set("samplepath.host_us_per_sample",
			(mon-exact)*float64(monRun.instret)/float64(monRun.pebs.SamplesTaken)/1e3)
	}
	rep.set("opt.coalloc_host_ns_per_instr", co-mon)
	rep.set("opt.allkinds_host_ns_per_instr", all-mon)
	d, r := optStat(allRun.opt, opt.KindCodeLayout)
	rep.set("opt.codelayout.decisions", float64(d))
	rep.set("opt.codelayout.reverts", float64(r))
	d, r = optStat(allRun.opt, opt.KindSwPrefetch)
	rep.set("opt.swprefetch.decisions", float64(d))
	rep.set("opt.swprefetch.reverts", float64(r))
	rep.set("cache.swprefetch_accuracy", allRun.cache.SwPrefetchAccuracy())
	rep.set("gc.gencopy_host_ns_per_instr", gencopy)
	rep.set("vm.adaptive_host_ns_per_instr", adaptive)

	// Observe is passive for the simulation; this is what it costs the host.
	off, _ := e.cell(ctx, "compress", bench.RunConfig{Seed: e.seed})
	on, _ := e.cell(ctx, "compress", bench.RunConfig{Seed: e.seed, Observe: true})
	if off > 0 {
		rep.set("obs.observe_overhead_pct", 100*(on/off-1))
	}
}

// probeVM meters what precedes every run: building a program (compilers,
// class files) and booting a system for it under the all-opt plan.
func (e *env) probeVM(ctx context.Context) {
	measure := func(name string) (buildMS, bootMS float64) {
		b, err := bench.Lookup(name)
		if !e.rep.check(err == nil, "%v", err) {
			return 0, 0
		}
		var builds, boots []float64
		for i := 0; i < 3; i++ {
			var prog *bench.Program
			builds = append(builds, e.timed(func() { prog = b() }))
			boots = append(boots, e.timed(func() {
				cfg := bench.RunConfig{Seed: e.seed}
				sys, err := core.NewSystemOpts(prog.U, cfg.Resolve(prog.MinHeap, prog.HotFieldName))
				if e.rep.check(err == nil, "probe new %s: %v", name, err) {
					err = sys.Boot(bench.AllOptPlan(prog.U, 2), prog.Materialize)
					e.rep.check(err == nil, "probe boot %s: %v", name, err)
				}
			}))
		}
		return stats.Median(builds) / 1e6, stats.Median(boots) / 1e6
	}
	var build, boot float64
	for _, name := range simPrograms {
		bd, bt := measure(name)
		build += bd
		boot += bt
	}
	e.rep.set("vm.build_ms", build)
	e.rep.set("vm.boot_ms", boot)
	bd, bt := measure(serveProg)
	e.rep.set("vm.build_ms.fop", bd)
	e.rep.set("vm.boot_ms.fop", bt)
}

// probeSnapshot meters checkpointing fop at the cycle serve-mixed warm
// starts from, and the obs export of an observed run.
func (e *env) probeSnapshot(ctx context.Context) {
	rep := e.rep
	b, err := bench.Lookup(serveProg)
	if !rep.check(err == nil, "%v", err) {
		return
	}
	cfg := bench.RunConfig{Seed: e.seed, Observe: true}
	prog, sys, err := bench.BuildSystem(b, cfg)
	if !rep.check(err == nil, "probe snapshot: %v", err) {
		return
	}
	paused, err := sys.RunToCycle(ctx, prog.Entry, 0, warmCycles)
	if !rep.check(err == nil && paused, "probe snapshot: %s did not pause at cycle %d (%v)", serveProg, warmCycles, err) {
		return
	}
	var blob []byte
	snapNS := e.timed(func() {
		sn, serr := sys.Snapshot()
		if err = serr; err == nil {
			blob = core.EncodeSnapshot(sn)
		}
	})
	if !rep.check(err == nil, "probe snapshot: %v", err) {
		return
	}
	_, fresh, err := bench.BuildSystem(b, cfg)
	if !rep.check(err == nil, "probe restore: %v", err) {
		return
	}
	restoreNS := e.timed(func() { _, err = core.RestoreSystem(fresh, blob) })
	rep.check(err == nil, "probe restore: %v", err)
	rep.set("core.snapshot_ms", snapNS/1e6)
	rep.set("core.snapshot_mb", float64(len(blob))/(1<<20))
	rep.set("core.restore_ms", restoreNS/1e6)

	metrics := sys.Obs.Metrics()
	dump := sys.Obs.TraceDump()
	rep.set("obs.export_ms", e.timed(func() {
		rep.check(metrics.WriteJSON(io.Discard) == nil && dump.WriteJSON(io.Discard) == nil, "probe obs export")
	})/1e6)
}

// probeEngine compares the bench engine's two-worker and one-worker wall
// time over the same runs.
func (e *env) probeEngine(ctx context.Context) {
	// The engine runs a program to its end or fails, so the probe uses the
	// shortest program whole rather than a bounded prefix of a long one.
	b, err := bench.Lookup(serveProg)
	if !e.rep.check(err == nil, "%v", err) {
		return
	}
	wall := func(jobs int) float64 {
		return e.timed(func() {
			eng := bench.NewEngine(jobs)
			for i := 0; i < e.scaled(24); i++ {
				eng.RunAsyncContext(ctx, b, bench.RunConfig{Seed: e.seed}, "probe")
			}
			e.rep.check(eng.Wait() == nil, "probe engine with %d jobs", jobs)
		})
	}
	one, two := wall(1), wall(2)
	if two > 0 {
		e.rep.set("bench.engine_speedup_2jobs", one/two)
	}
}

// probeAPI meters what a cache hit does before it reaches the cache: the
// wire codec on the hot request, and the fingerprint of its resolved options.
func (e *env) probeAPI() {
	if b, err := bench.Lookup(serveProg); e.rep.check(err == nil, "%v", err) {
		prog := b()
		opts := bench.RunConfig{Seed: e.seed}.Resolve(prog.MinHeap, prog.HotFieldName)
		e.rep.set("core.fingerprint_us", e.perCall(20_000, func(n int) {
			for i := 0; i < n; i++ {
				if opts.Fingerprint() == "" {
					panic("benchmark: empty fingerprint")
				}
			}
		})/1e3)
	}
	body, _ := json.Marshal(hotRequest(e.seed))
	e.rep.set("api.request_decode_us", e.perCall(100_000, func(n int) {
		for i := 0; i < n; i++ {
			var req api.Request
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if dec.Decode(&req) != nil {
				panic("benchmark: hot request does not decode")
			}
		}
	})/1e3)
	frame := api.StreamProgress{ElapsedMS: 1234}
	e.rep.set("api.stream_frame_us", e.perCall(100_000, func(n int) {
		var buf bytes.Buffer
		for i := 0; i < n; i++ {
			buf.Reset()
			if api.WriteStreamJSON(&buf, api.EventProgress, frame) != nil {
				panic("benchmark: stream frame does not encode")
			}
			if _, err := api.NewStreamDecoder(&buf).Next(); err != nil {
				panic("benchmark: stream frame does not decode")
			}
		}
	})/1e3)
}

// post serves one POST of body through h without a network.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// probeServe meters the nested hit path — Server.RunBytes inside the HTTP
// handler inside a client round trip over loopback — and the same path
// through a coordinator with in-process and with HTTP workers.
func (e *env) probeServe(ctx context.Context) {
	rep := e.rep
	hot := hotRequest(e.seed)
	body, _ := json.Marshal(hot)

	srv := serve.New(serve.Config{})
	if _, err := srv.RunBytes(ctx, hot); !rep.check(err == nil, "probe serve: prime: %v", err) {
		return
	}
	runbytes := e.perCall(50_000, func(n int) {
		for i := 0; i < n; i++ {
			if res, err := srv.RunBytes(ctx, hot); err != nil || res.Cache != "hit" {
				panic("benchmark: primed RunBytes is not a hit")
			}
		}
	}) / 1e3
	handler := srv.Handler()
	viaHandler := func(h http.Handler, path string) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if rec := post(h, path, body); rec.Code != http.StatusOK {
					panic("benchmark: primed handler request failed")
				}
			}
		}
	}
	handlerUS := e.perCall(20_000, viaHandler(handler, api.PathRun)) / 1e3
	streamUS := e.perCall(10_000, viaHandler(handler, api.PathStream)) / 1e3

	ts := httptest.NewServer(handler)
	c := client.New(client.Config{BaseURL: ts.URL})
	viaClient := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Run(ctx, hot); err != nil {
				panic("benchmark: primed client request failed")
			}
		}
	}
	viaClient(10) // open the connection
	clientUS := e.perCall(10_000, viaClient) / 1e3
	ts.Close()

	rep.set("serve.runbytes_hit_us", runbytes)
	rep.set("serve.handler_hit_us", handlerUS)
	rep.set("client.run_hit_us", clientUS)
	rep.set("serve.http_self_us", handlerUS-runbytes)
	rep.set("client.transport_self_us", clientUS-handlerUS)
	rep.set("serve.stream_hit_us", streamUS)
	rep.set("serve.statsz_us", e.perCall(20_000, func(n int) {
		for i := 0; i < n; i++ {
			srv.Stats()
		}
	})/1e3)

	// What the serve layer adds to a miss: a unique request through
	// RunBytes against a direct run of the same program.
	b, err := bench.Lookup(serveProg)
	if !rep.check(err == nil, "%v", err) {
		return
	}
	var served, direct []float64
	for i := 0; i < 3; i++ {
		unique := hot
		unique.Seed = e.seed*1_000_000 + 900_000 + int64(i)
		served = append(served, e.timed(func() {
			_, err := srv.RunBytes(ctx, unique)
			rep.check(err == nil, "probe serve: miss: %v", err)
		}))
		direct = append(direct, e.timed(func() {
			_, _, err := bench.Run(b, bench.RunConfig{Seed: unique.Seed})
			rep.check(err == nil, "probe serve: direct run: %v", err)
		}))
	}
	rep.set("serve.miss_overhead_ms", (stats.Median(served)-stats.Median(direct))/1e6)

	// The coordinator over two in-process workers, then over two HTTP ones.
	local, err := serve.NewFleet(serve.FleetConfig{Backends: []serve.Backend{
		serve.NewLocalBackend("l0", serve.New(serve.Config{})),
		serve.NewLocalBackend("l1", serve.New(serve.Config{})),
	}, HealthInterval: -1})
	if !rep.check(err == nil, "probe fleet: %v", err) {
		return
	}
	defer local.Close()
	post(local.Handler(), api.PathRun, body)
	localUS := e.perCall(20_000, viaHandler(local.Handler(), api.PathRun)) / 1e3

	remoteEnv, err := newServeEnv(true, nil)
	if !rep.check(err == nil, "probe fleet: %v", err) {
		return
	}
	defer remoteEnv.close()
	remote := remoteEnv.fleet.Handler()
	post(remote, api.PathRun, body)
	remoteUS := e.perCall(10_000, viaHandler(remote, api.PathRun)) / 1e3

	rep.set("fleet.local_hit_us", localUS)
	rep.set("fleet.remote_hit_us", remoteUS)
	rep.set("fleet.route_self_us", localUS-handlerUS)
	rep.set("fleet.hop_self_us", remoteUS-localUS)
}
