package bench

import (
	"context"
	"fmt"
	"strings"

	"hpmvm/internal/core"
	"hpmvm/internal/stats"
)

// Warm-start sweeps: a parameter sweep whose configurations differ
// only in the hardware sampling interval shares its entire
// pre-divergence execution. RunPrefix runs a workload once to a pause
// cycle and captures the encoded whole-system snapshot;
// RunFromSnapshot restores that snapshot into a fresh system for each
// sweep point and runs only the tail. The restore contract
// (core.System.Restore) makes the same-interval point byte-identical
// to its cold run and retargets every other point at the restore
// cycle, so an N-point sweep costs one prefix plus N tails instead of
// N full runs.

// RunPrefix executes prog under cfg up to pauseAt simulated cycles and
// returns the encoded snapshot of the paused system, tagged with the
// workload name. It fails if the program finishes before the pause
// cycle — there is nothing to warm-start then.
func RunPrefix(b Builder, cfg RunConfig, pauseAt uint64) ([]byte, error) {
	return RunPrefixContext(context.Background(), b, cfg, pauseAt)
}

// RunPrefixContext is RunPrefix with cooperative cancellation.
func RunPrefixContext(ctx context.Context, b Builder, cfg RunConfig, pauseAt uint64) ([]byte, error) {
	prog := b()
	sys, _, err := buildSystem(prog, cfg)
	if err != nil {
		return nil, err
	}
	paused, err := sys.RunToCycle(ctx, prog.Entry, cfg.MaxCycles, pauseAt)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: prefix: %w", prog.Name, err)
	}
	if !paused {
		return nil, fmt.Errorf("bench: %s: finished before prefix cycle %d — nothing to warm-start", prog.Name, pauseAt)
	}
	sn, err := sys.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("bench: %s: snapshot: %w", prog.Name, err)
	}
	sn.Tag = prog.Name
	return core.EncodeSnapshot(sn), nil
}

// RunFromSnapshot restores an encoded snapshot produced by RunPrefix
// into a freshly booted system for prog under cfg and runs it to the
// end, returning the same Result shape as a cold Run. The snapshot's
// tag must name the same workload; its options must match cfg exactly
// or up to the sampling interval (core.ErrSnapshotMismatch otherwise).
func RunFromSnapshot(b Builder, cfg RunConfig, snapshot []byte) (*Result, *core.System, error) {
	return RunFromSnapshotContext(context.Background(), b, cfg, snapshot)
}

// RunFromSnapshotContext is RunFromSnapshot with cooperative
// cancellation.
func RunFromSnapshotContext(ctx context.Context, b Builder, cfg RunConfig, snapshot []byte) (*Result, *core.System, error) {
	prog := b()
	sn, err := core.DecodeSnapshot(snapshot)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", prog.Name, err)
	}
	if sn.Tag != prog.Name {
		return nil, nil, fmt.Errorf("bench: snapshot was taken for workload %q, cannot warm-start %q", sn.Tag, prog.Name)
	}
	sys, opts, err := buildSystem(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.Monitoring = opts.Monitoring
	if err := sys.Restore(sn); err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", prog.Name, err)
	}
	if err := sys.ResumeContext(ctx, cfg.MaxCycles); err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", prog.Name, err)
	}
	if prog.Expected != nil {
		if err := checkResults(prog.Expected, sys.VM.Results()); err != nil {
			return nil, nil, fmt.Errorf("bench: %s: %w", prog.Name, err)
		}
	}
	return collectResult(prog, cfg, opts.HeapLimit, sys), sys, nil
}

// RunFrom schedules one warm-started run per configuration over a
// shared snapshot and returns their futures in configuration order.
// The runs participate in the engine's fail-fast error, like RunAsync;
// accessors are valid after Engine.Wait returns nil.
func (e *Engine) RunFrom(b Builder, snapshot []byte, configs ...RunConfig) []*RunHandle {
	handles := make([]*RunHandle, len(configs))
	for i, cfg := range configs {
		i, cfg := i, cfg
		h := &RunHandle{done: make(chan struct{})}
		handles[i] = h
		e.submit(fmt.Sprintf("warmstart[%d]", i), func() error {
			defer close(h.done)
			res, sys, err := RunFromSnapshot(b, cfg, snapshot)
			if err != nil {
				h.err = err
				return err
			}
			e.AddSim(res.Cycles)
			h.res, h.sys = res, sys
			return nil
		}, false, func() {
			h.err = errSkipped
			close(h.done)
		})
	}
	return handles
}

// --- Warm-start experiment -------------------------------------------------

// WarmstartIntervals is the sampling-interval sweep the warm-start
// experiment runs cold and warm (paper scale 1/100: 25K/50K/100K/200K
// events).
var WarmstartIntervals = []uint64{250, 500, 1000, 2000}

// WarmstartPrefixFraction is the share of a run the shared prefix
// covers: large enough that the sweep shares a substantial prefix,
// small enough that a meaningful tail remains to resimulate per point.
// The pause cycle itself is discovered per run by a sampled discovery
// pass (see DiscoverPrefixCycles) instead of being hardcoded, so the
// experiment adapts to workload and configuration changes.
const WarmstartPrefixFraction = 0.55

// DiscoverPrefixCycles estimates cfg's full-run cycle count with a
// cheap sampled run (on the workload's calibrated schedule) and
// returns WarmstartPrefixFraction of it as the warm-start pause cycle,
// along with the estimate it derived from. The discovery run is a
// separate simulation — sampled systems refuse Snapshot — so the
// prefix itself still executes cycle-exactly.
func DiscoverPrefixCycles(b Builder, cfg RunConfig) (uint64, *stats.Estimate, error) {
	prog := b()
	scfg := CalibratedSampling(prog.Name)
	cfg.Sampling = &scfg
	res, _, err := Run(func() *Program { return prog }, cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("bench: %s: prefix discovery: %w", prog.Name, err)
	}
	if res.Estimated == nil {
		return 0, nil, fmt.Errorf("bench: %s: prefix discovery produced no estimate", prog.Name)
	}
	return uint64(WarmstartPrefixFraction * res.Estimated.Cycles), res.Estimated, nil
}

// WarmstartResult carries the warm-start experiment's measurements.
type WarmstartResult struct {
	Program          string
	PrefixCycles     uint64  // discovered pause cycle (fraction of the estimate)
	EstimatedCycles  float64 // sampled discovery's full-run cycle estimate
	Intervals        []uint64
	ColdCycles       []uint64 // final simulated cycles, cold run per interval
	WarmCycles       []uint64 // final simulated cycles, warm-started run per interval
	ColdSeconds      float64  // summed wall clock of the cold sweep
	DiscoverySeconds float64  // wall clock of the sampled discovery run
	PrefixSeconds    float64  // wall clock of the shared prefix run
	ResumeSeconds    float64  // summed wall clock of the warm tails
}

// Speedup returns the serial-equivalent wall-clock ratio of the cold
// sweep over the warm-start sweep (prefix + tails). Discovery is
// excluded: its product — the pause cycle — is a property of the
// configuration, reusable across sweeps (and previously a hardcoded
// constant). SpeedupWithDiscovery charges it.
func (r *WarmstartResult) Speedup() float64 {
	warm := r.PrefixSeconds + r.ResumeSeconds
	if warm <= 0 {
		return 1
	}
	return r.ColdSeconds / warm
}

// SpeedupWithDiscovery is Speedup with the sampled discovery run's
// wall clock charged to the warm side — the honest first-time cost.
func (r *WarmstartResult) SpeedupWithDiscovery() float64 {
	warm := r.DiscoverySeconds + r.PrefixSeconds + r.ResumeSeconds
	if warm <= 0 {
		return 1
	}
	return r.ColdSeconds / warm
}

// WarmstartData runs the sampling-interval sweep on db twice — cold
// (one full run per interval) and warm (sampled prefix discovery, then
// one shared exact prefix sampled at the first interval, then one
// RunFrom tail per interval) — and returns both the simulated outcomes
// and the wall-clock accounting. Wall clock is measured as the
// engine's summed per-run time, so the speedup is the
// serial-equivalent ratio, independent of the jobs setting.
func WarmstartData(opt ExpOptions) (*WarmstartResult, error) {
	builder, err := Lookup("db")
	if err != nil {
		return nil, err
	}
	e := opt.engine()
	res := &WarmstartResult{
		Program:    "db",
		Intervals:  WarmstartIntervals,
		ColdCycles: make([]uint64, len(WarmstartIntervals)),
		WarmCycles: make([]uint64, len(WarmstartIntervals)),
	}
	cfgAt := func(iv uint64) RunConfig {
		return RunConfig{Monitoring: true, Interval: iv, Seed: opt.Seed}
	}

	// Cold sweep: one full run per interval.
	base := e.Stats().RunTime
	cold := make([]*RunHandle, len(WarmstartIntervals))
	for i, iv := range WarmstartIntervals {
		cold[i] = e.RunAsync(builder, cfgAt(iv), fmt.Sprintf("db/cold-iv=%d", iv))
	}
	if err := e.Wait(); err != nil {
		return nil, err
	}
	res.ColdSeconds = (e.Stats().RunTime - base).Seconds()
	for i, h := range cold {
		res.ColdCycles[i] = h.Result().Cycles
	}

	// Sampled discovery: estimate the run length, derive the pause
	// cycle as a fixed fraction of it.
	base = e.Stats().RunTime
	e.Submit("db/discover", func() error {
		pauseAt, est, err := DiscoverPrefixCycles(builder, cfgAt(WarmstartIntervals[0]))
		if err != nil {
			return err
		}
		res.PrefixCycles = pauseAt
		res.EstimatedCycles = est.Cycles
		return nil
	})
	if err := e.Wait(); err != nil {
		return nil, err
	}
	res.DiscoverySeconds = (e.Stats().RunTime - base).Seconds()

	// Shared prefix, sampled at the sweep's first interval.
	base = e.Stats().RunTime
	var snapshot []byte
	e.Submit("db/prefix", func() error {
		var err error
		snapshot, err = RunPrefix(builder, cfgAt(WarmstartIntervals[0]), res.PrefixCycles)
		return err
	})
	if err := e.Wait(); err != nil {
		return nil, err
	}
	res.PrefixSeconds = (e.Stats().RunTime - base).Seconds()

	// Warm sweep: restore the shared prefix, retarget, run the tail.
	base = e.Stats().RunTime
	cfgs := make([]RunConfig, len(WarmstartIntervals))
	for i, iv := range WarmstartIntervals {
		cfgs[i] = cfgAt(iv)
	}
	warm := e.RunFrom(builder, snapshot, cfgs...)
	if err := e.Wait(); err != nil {
		return nil, err
	}
	res.ResumeSeconds = (e.Stats().RunTime - base).Seconds()
	for i, h := range warm {
		res.WarmCycles[i] = h.Result().Cycles
	}
	return res, nil
}

// Warmstart renders the warm-start sweep. The same-interval point is
// byte-identical to its cold run (equal final cycles, pinned by
// TestSnapshotRestoreByteIdentical at the core layer); retargeted
// points may differ slightly since their prefix was sampled at the
// snapshot's interval.
func Warmstart(opt ExpOptions) (string, error) {
	r, err := WarmstartData(opt)
	if err != nil {
		return "", err
	}
	opt.recordMetric("warm_start_speedup", r.Speedup())
	opt.recordMetric("warm_start_speedup_with_discovery", r.SpeedupWithDiscovery())
	var b strings.Builder
	fmt.Fprintf(&b, "Warm start: sampling-interval sweep over a shared %d-cycle prefix (%s)\n",
		r.PrefixCycles, r.Program)
	fmt.Fprintf(&b, "prefix = %.0f%% of the sampled discovery estimate (%.0f cycles), sampled at\n",
		100*WarmstartPrefixFraction, r.EstimatedCycles)
	fmt.Fprintf(&b, "interval %d; each sweep point restores it and retargets\n\n", r.Intervals[0])
	fmt.Fprintf(&b, "%-10s %15s %15s %10s\n", "interval", "cold cycles", "warm cycles", "identical")
	for i, iv := range r.Intervals {
		fmt.Fprintf(&b, "%-10d %15d %15d %10v\n", iv, r.ColdCycles[i], r.WarmCycles[i],
			r.ColdCycles[i] == r.WarmCycles[i])
	}
	fmt.Fprintf(&b, "\nwall clock (serial-equivalent): cold sweep %.2fs; discovery %.2fs + warm prefix %.2fs + tails %.2fs\n",
		r.ColdSeconds, r.DiscoverySeconds, r.PrefixSeconds, r.ResumeSeconds)
	fmt.Fprintf(&b, "warm-start speedup: %.2fx (%.2fx charging discovery)\n",
		r.Speedup(), r.SpeedupWithDiscovery())
	return b.String(), nil
}
