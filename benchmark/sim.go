package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hpmvm/internal/bench"
	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/pebs"
	"hpmvm/internal/monitor"
	"hpmvm/internal/opt"
	"hpmvm/internal/stats"
)

// simPrograms are the four programs every sim workload runs, so their
// sim_minstr_per_s are directly comparable: compress streams (750 k L1
// misses), db chases pointers (2.0 M, the paper's co-allocation headline),
// jess allocates (1.1 M), mtrt barely misses at all (1 k: pure interpreter).
var simPrograms = []string{"compress", "db", "jess", "mtrt"}

// The recorded results of the exact configuration (BenchmarkWorkloads). A
// change to the modelled machine must change these knowingly.
const (
	exactSimCycles  = 776942198
	exactSimInstret = 220000310
	// maxEstErrPct is the calibrated bound on a sampled estimate's cycle
	// error (TestSamplingCalibration); beyond it the estimate is wrong,
	// not merely noisy.
	maxEstErrPct = 2.0
)

// monitoredInterval is the paper's 25 K sampling interval at the repo's
// 1/100 scale (bench.Fig3Intervals[0]).
const monitoredInterval = 250

// simConfig is the run configuration of one program under a sim workload.
func simConfig(workload, program string, seed int64) bench.RunConfig {
	switch workload {
	case "sim-monitored":
		return bench.RunConfig{Coalloc: true, Interval: monitoredInterval, Seed: seed}
	case "sim-sampled":
		sc := bench.CalibratedSampling(program)
		return bench.RunConfig{Sampling: &sc, Seed: seed}
	default:
		return bench.RunConfig{Seed: seed}
	}
}

// simRun is what the harness keeps of one simulated run.
type simRun struct {
	runNS  float64   // simulating the program to its end: the timed unit
	fullNS float64   // build, new, boot, run and verify: what a caller waits for
	inside refWindow // reference slices taken between the run's chunks

	cycles   uint64
	instret  uint64
	cache    cache.Stats
	minor    uint64
	major    uint64
	gcCycles uint64
	frag     float64
	pairs    uint64
	pebs     pebs.Stats
	monitor  monitor.Stats
	opt      []opt.KindStats
	mcmap    uint64
	est      *stats.Estimate
}

// chunkCycles is how far a timed run simulates between two reference
// slices: about 50 ms of host time. The box's speed changes within a run of
// one or two seconds, so the reference has to be sampled inside it.
const chunkCycles = 10_000_000

// simulate is the timed unit: it runs the booted system to the end of the
// program (or to stopAt, if non-zero) and returns the host time spent
// simulating. With a reference kernel it pauses every chunkCycles to take a
// slice, which is left out of the time; a paused and resumed run is
// cycle-identical to core.System.RunContext, which the recorded cycle
// counts confirm on every run.
func simulate(ctx context.Context, sys *core.System, prog *bench.Program, ref *refKernel, stopAt uint64) (r simRun, paused bool, err error) {
	next := stopAt
	if ref != nil && (stopAt == 0 || chunkCycles < stopAt) {
		next = chunkCycles
	}
	t := time.Now()
	paused, err = sys.RunToCycle(ctx, prog.Entry, 0, next)
	r.runNS = float64(time.Since(t))
	for paused && err == nil && next != stopAt {
		r.inside.add(ref.slice())
		next += chunkCycles
		if stopAt != 0 && next > stopAt {
			next = stopAt
		}
		t = time.Now()
		paused, err = sys.VM.RunUntil(0, next)
		r.runNS += float64(time.Since(t))
	}
	if !paused && err == nil && r.inside.n > 0 {
		// The program ended inside a chunk driven through the VM; resuming
		// a halted system performs core's end-of-run monitor flush.
		t = time.Now()
		err = sys.ResumeContext(ctx, 0)
		r.runNS += float64(time.Since(t))
	}
	return r, paused, err
}

// runSim performs one bench run through the same public calls bench.Run
// makes, timing the simulation on its own and opening a span at each
// boundary. With stopAt non-zero the run pauses at that simulated cycle
// instead of finishing, and its result log is not verified.
func runSim(ctx context.Context, tr *tracer, b bench.Builder, cfg bench.RunConfig, ref *refKernel, stopAt uint64) (simRun, error) {
	tr.nextUnit()
	endUnit := tr.begin("bench.run")
	defer endUnit()
	start := time.Now()

	end := tr.begin("vm.build")
	prog := b()
	end()

	end = tr.begin("core.new")
	sys, err := core.NewSystemOpts(prog.U, cfg.Resolve(prog.MinHeap, prog.HotFieldName))
	end()
	if err != nil {
		return simRun{}, fmt.Errorf("%s: %w", prog.Name, err)
	}

	end = tr.begin("core.boot")
	plan := cfg.Plan
	if plan == nil && !cfg.Adaptive {
		plan = bench.AllOptPlan(prog.U, 2)
	}
	err = sys.Boot(plan, prog.Materialize)
	end()
	if err != nil {
		return simRun{}, fmt.Errorf("%s: boot: %w", prog.Name, err)
	}
	prepNS := float64(time.Since(start))

	end = tr.begin("core.run")
	r, paused, err := simulate(ctx, sys, prog, ref, stopAt)
	end()
	if err != nil {
		return r, fmt.Errorf("%s: run: %w", prog.Name, err)
	}

	end = tr.begin("bench.verify")
	t := time.Now()
	if !paused && prog.Expected != nil {
		err = sameResults(prog.Expected, sys.VM.Results())
	}
	r.fullNS = prepNS + r.runNS + float64(time.Since(t))
	end()
	if err != nil {
		return r, fmt.Errorf("%s: %w", prog.Name, err)
	}

	r.cycles = sys.VM.Cycles()
	r.instret = sys.VM.CPU.Instret()
	r.cache = sys.Hier().Stats()
	r.minor, r.major = sys.GCStats()
	if sys.GenMS != nil {
		st := sys.GenMS.Stats()
		r.gcCycles, r.frag, r.pairs = st.GCCycles, st.Fragmentation, st.CoallocPairs
	}
	if sys.GenCopy != nil {
		r.gcCycles = sys.GenCopy.Stats().GCCycles
	}
	r.pebs = sys.Unit.Stats()
	if sys.Monitor != nil {
		r.monitor = sys.Monitor.Stats()
	}
	r.opt = sys.OptStats()
	r.mcmap = sys.VM.Table.Space().MCMapBytes
	if est, ok := sys.SamplingEstimate(); ok {
		r.est = &est
	}
	return r, nil
}

// sameResults compares a program's result log with the expected one.
func sameResults(want, got []int64) error {
	if len(want) != len(got) {
		return fmt.Errorf("result log has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("result[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// optStat returns the decision and revert counts of one optimization kind.
func optStat(rows []opt.KindStats, kind string) (decisions, reverts uint64) {
	for _, k := range rows {
		if k.Kind == kind {
			return k.Decisions, k.Reverts
		}
	}
	return 0, 0
}

// simPass is one interleaved pass over simPrograms: per program, the run
// and its drift-corrected times.
type simPass struct {
	runs     []simRun
	runCorr  []float64 // corrected runNS
	fullCorr []float64 // corrected fullNS
	window   refWindow // every reference slice of the pass
}

// simPass runs every program once under the workload's configuration (or
// the exact one for the warm-up). Each run's window is the bracket before
// it, the slices taken inside it and the bracket after it. before is the
// bracket already taken ahead of the pass; the bracket that closes the pass
// is returned for the next one to reuse.
func (e *env) simPass(ctx context.Context, tr *tracer, workload string, before float64) (simPass, float64) {
	var p simPass
	p.window.add(before)
	for _, name := range simPrograms {
		b, err := bench.Lookup(name)
		if err != nil {
			e.rep.check(false, "%v", err)
			continue
		}
		var stopAt uint64
		if e.quick {
			stopAt = quickCycles
		}
		run, err := runSim(ctx, tr, b, simConfig(workload, name, e.seed), e.ref, stopAt)
		e.rep.check(err == nil, "%s %s: %v", workload, name, err)
		after := e.ref.bracket()
		w := run.inside
		w.add(before)
		w.add(after)
		p.runs = append(p.runs, run)
		p.runCorr = append(p.runCorr, correct(run.runNS, w))
		p.fullCorr = append(p.fullCorr, correct(run.fullNS, w))
		p.window.sum += run.inside.sum + after
		p.window.n += run.inside.n + 1
		before = after
	}
	return p, before
}

// medians folds passes per program: the median over passes of f.
func medians(passes []simPass, f func(simPass, int) float64) []float64 {
	out := make([]float64, len(simPrograms))
	for i := range simPrograms {
		xs := make([]float64, 0, len(passes))
		for _, p := range passes {
			if i < len(p.runs) {
				xs = append(xs, f(p, i))
			}
		}
		out[i] = stats.Median(xs)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// runSimWorkload is a whole sim workload: one untimed warm-up pass in the
// exact configuration (it warms the Go heap and supplies the unmonitored
// truth), then timed passes until the measuring time is used up, then for a
// traced run one more pass with spans on.
func (e *env) runSimWorkload(ctx context.Context) {
	rep, workload := e.rep, e.workload

	warm, bracket := e.simPass(ctx, nil, "sim-exact", e.startBracket)
	if len(warm.runs) != len(simPrograms) {
		return
	}
	e.setupDone(warm.window)

	// Timed passes: a fixed number when shortened, else as many as fit —
	// another pass starts while at least half of it still fits.
	var timed []simPass
	started := time.Now()
	for {
		var p simPass
		passStart := time.Now()
		p, bracket = e.simPass(ctx, nil, workload, bracket)
		timed = append(timed, p)
		if e.short() {
			break
		}
		last := time.Since(passStart)
		if time.Since(started)+last/2 > e.measure {
			break
		}
	}

	runMed := medians(timed, func(p simPass, i int) float64 { return p.runCorr[i] })
	fullMed := medians(timed, func(p simPass, i int) float64 { return p.fullCorr[i] })
	rawMed := medians(timed, func(p simPass, i int) float64 { return p.runs[i].runNS })
	final := timed[len(timed)-1]
	if len(final.runs) != len(simPrograms) {
		return
	}

	// Correctness: simulated results are deterministic, so every pass
	// agrees with every other, instruction counts equal the exact run's,
	// and the exact configuration reproduces the recorded totals. Runs cut
	// short by -quick stop at a cycle count, where the last two do not hold.
	var cycles, l1, instret, exactCycles, exactInstret float64
	for i, name := range simPrograms {
		exactCycles += float64(warm.runs[i].cycles)
		exactInstret += float64(warm.runs[i].instret)
		rep.check(e.quick || final.runs[i].instret == warm.runs[i].instret,
			"%s %s: instret %d differs from the exact run's %d", workload, name, final.runs[i].instret, warm.runs[i].instret)
		for _, p := range timed {
			rep.check(len(p.runs) == len(simPrograms) && p.runs[i].cycles == final.runs[i].cycles,
				"%s %s: cycles differ between passes", workload, name)
		}
		instret += float64(final.runs[i].instret)
		if est := final.runs[i].est; est != nil {
			cycles += est.Cycles
			l1 += est.L1Misses
		} else {
			cycles += float64(final.runs[i].cycles)
			l1 += float64(final.runs[i].cache.L1Misses)
		}
	}
	rep.check(e.quick || exactCycles == exactSimCycles, "exact configuration simulates %.0f cycles, recorded %d", exactCycles, exactSimCycles)
	rep.check(e.quick || exactInstret == exactSimInstret, "exact configuration retires %.0f instructions, recorded %d", exactInstret, exactSimInstret)

	rep.logf("%s: %d timed passes, per program median of RunContext (raw -> corrected ms):", workload, len(timed))
	for i, name := range simPrograms {
		rep.logf("  %-9s %9.1f -> %9.1f", name, rawMed[i]/1e6, runMed[i]/1e6)
	}

	rep.set("sim_minstr_per_s", instret/1e6/(sum(runMed)/1e9))
	rep.set("rps", float64(len(simPrograms))/(sum(fullMed)/1e9))
	rep.set("sim_cycles", cycles)
	rep.set("l1_misses", l1)
	rep.logf("  sim_minstr_per_s raw %.3f Minstr/s (n=%d runs)", instret/1e6/(sum(rawMed)/1e9), len(timed)*len(simPrograms))

	e.simLayerCounts(final, warm, runMed)

	if e.traced {
		// The traced pass is compared with the last untraced one.
		e.tracer.enable(true)
		p, _ := e.simPass(ctx, e.tracer, workload, bracket)
		e.tracer.enable(false)
		if len(p.runs) == len(simPrograms) {
			rep.set("trace.overhead_pct", 100*(sum(p.runCorr)/sum(final.runCorr)-1))
		}
	}
}

// simLayerCounts reports the exact per-layer counts and rates of the
// workload's last pass, summed over the four programs.
func (e *env) simLayerCounts(final, warm simPass, runMed []float64) {
	rep := e.rep
	var cs cache.Stats
	var ps pebs.Stats
	var ms monitor.Stats
	var minor, major, gcCycles, pairs, mcmap, decisions, reverts, rawCycles uint64
	var frag, measured, total, errMax float64
	covers := 0
	for i, r := range final.runs {
		cs.Accesses += r.cache.Accesses
		cs.L1Misses += r.cache.L1Misses
		cs.L2Misses += r.cache.L2Misses
		cs.TLBMisses += r.cache.TLBMisses
		cs.Prefetches += r.cache.Prefetches
		cs.PrefetchHits += r.cache.PrefetchHits
		ps.SamplesTaken += r.pebs.SamplesTaken
		ps.Dropped += r.pebs.Dropped
		ps.Interrupts += r.pebs.Interrupts
		ms.Polls += r.monitor.Polls
		ms.SamplesRead += r.monitor.SamplesRead
		ms.SamplesDecoded += r.monitor.SamplesDecoded
		ms.SamplesDropped += r.monitor.SamplesDropped
		ms.FieldsAttributed += r.monitor.FieldsAttributed
		ms.MonitorCycles += r.monitor.MonitorCycles
		minor += r.minor
		major += r.major
		gcCycles += r.gcCycles
		pairs += r.pairs
		mcmap += r.mcmap
		rawCycles += r.cycles
		frag += r.frag / float64(len(final.runs))
		d, rv := optStat(r.opt, opt.KindCoalloc)
		decisions += d
		reverts += rv
		if r.est != nil {
			exact := float64(warm.runs[i].cycles)
			measured += float64(r.est.MeasuredInstret)
			total += float64(r.est.TotalInstret)
			errMax = math.Max(errMax, 100*math.Abs(r.est.Cycles-exact)/exact)
			if r.est.CyclesLo <= exact && exact <= r.est.CyclesHi {
				covers++
			}
		}
		rep.set("core.run_ms."+simPrograms[i], runMed[i]/1e6)
	}
	rep.check(ms.SamplesRead >= ms.SamplesDecoded+ms.SamplesDropped,
		"monitor read %d samples but decoded %d and dropped %d", ms.SamplesRead, ms.SamplesDecoded, ms.SamplesDropped)
	rep.check(e.quick || errMax <= maxEstErrPct, "sampled estimate is %.3f%% off the exact cycles (bound %.1f%%)", errMax, maxEstErrPct)

	rep.set("est_err_pct_max", errMax)
	rep.set("cache.l1_miss_rate", cs.L1MissRate())
	rep.set("cache.l2_miss_rate", cs.L2MissRate())
	rep.set("cache.dtlb_miss_rate", cs.TLBMissRate())
	rep.set("cache.hwprefetch_accuracy", cs.PrefetchAccuracy())
	rep.set("pebs.samples_taken", float64(ps.SamplesTaken))
	rep.set("pebs.dropped", float64(ps.Dropped))
	rep.set("pebs.interrupts", float64(ps.Interrupts))
	rep.set("monitor.polls", float64(ms.Polls))
	rep.set("monitor.samples_read", float64(ms.SamplesRead))
	rep.set("monitor.samples_decoded", float64(ms.SamplesDecoded))
	rep.set("monitor.samples_dropped", float64(ms.SamplesDropped))
	rep.set("monitor.fields_attributed", float64(ms.FieldsAttributed))
	rep.set("monitor.cycles_share", float64(ms.MonitorCycles)/float64(rawCycles))
	rep.set("opt.coalloc.decisions", float64(decisions))
	rep.set("opt.coalloc.reverts", float64(reverts))
	rep.set("coalloc.pairs", float64(pairs))
	rep.set("gc.minor", float64(minor))
	rep.set("gc.major", float64(major))
	rep.set("gc.cycles_share", float64(gcCycles)/float64(rawCycles))
	rep.set("gc.fragmentation", frag)
	rep.set("vm.mcmap_bytes", float64(mcmap))
	if total > 0 {
		rep.set("bench.sampled_detailed_frac", measured/total)
		rep.set("bench.sampled_ci_covers", float64(covers))
	}
}
