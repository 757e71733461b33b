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

// warmstart runs the sampling-interval sweep on db twice — cold (one
// full run per interval) and warm (sampled prefix discovery, then one
// shared exact prefix sampled at the first interval, then one RunFrom
// tail per interval) — and renders both outcomes and the wall-clock
// accounting. Each phase is one round on the engine, so its time is the
// summed per-run wall clock and the speedups are serial-equivalent
// ratios, independent of the jobs setting. The same-interval point is
// byte-identical to its cold run (equal final cycles, pinned by
// TestSnapshotRestoreByteIdentical at the core layer); retargeted
// points may differ slightly since their prefix was sampled at the
// snapshot's interval.
func warmstart(opt ExpOptions) (string, error) {
	builder, err := Lookup("db")
	if err != nil {
		return "", err
	}
	cfgs := make([]RunConfig, len(WarmstartIntervals))
	for i, iv := range WarmstartIntervals {
		cfgs[i] = RunConfig{Monitoring: true, Interval: iv, Seed: opt.Seed}
	}

	// Cold sweep: one full run per interval.
	cold := make([]*RunHandle, len(cfgs))
	coldTime, err := opt.round(func() {
		for i, cfg := range cfgs {
			cold[i] = opt.eng.RunAsync(builder, cfg, fmt.Sprintf("db/cold-iv=%d", cfg.Interval))
		}
	})
	if err != nil {
		return "", err
	}

	// Sampled discovery: estimate the run length, derive the pause
	// cycle as a fixed fraction of it.
	var pauseAt uint64
	var est *stats.Estimate
	discoveryTime, err := opt.round(func() {
		opt.eng.Submit("db/discover", func() (err error) {
			pauseAt, est, err = DiscoverPrefixCycles(builder, cfgs[0])
			return err
		})
	})
	if err != nil {
		return "", err
	}

	// Shared prefix, sampled at the sweep's first interval.
	var snapshot []byte
	prefixTime, err := opt.round(func() {
		opt.eng.Submit("db/prefix", func() (err error) {
			snapshot, err = RunPrefix(builder, cfgs[0], pauseAt)
			return err
		})
	})
	if err != nil {
		return "", err
	}

	// Warm sweep: restore the shared prefix, retarget, run the tail.
	var warm []*RunHandle
	tailsTime, err := opt.round(func() { warm = opt.eng.RunFrom(builder, snapshot, cfgs...) })
	if err != nil {
		return "", err
	}

	// Discovery is left out of the headline speedup: its product — the
	// pause cycle — is a property of the configuration, reusable across
	// sweeps (and once a hardcoded constant). The second ratio charges
	// it, the honest first-time cost.
	speedup := coldTime.Seconds() / (prefixTime + tailsTime).Seconds()
	withDiscovery := coldTime.Seconds() / (discoveryTime + prefixTime + tailsTime).Seconds()
	opt.recordMetric("warm_start_speedup", speedup)
	opt.recordMetric("warm_start_speedup_with_discovery", withDiscovery)

	var b strings.Builder
	fmt.Fprintf(&b, "Warm start: sampling-interval sweep over a shared %d-cycle prefix (db)\n", pauseAt)
	fmt.Fprintf(&b, "prefix = %.0f%% of the sampled discovery estimate (%.0f cycles), sampled at\n",
		100*WarmstartPrefixFraction, est.Cycles)
	fmt.Fprintf(&b, "interval %d; each sweep point restores it and retargets\n\n", WarmstartIntervals[0])
	fmt.Fprintf(&b, "%-10s %15s %15s %10s\n", "interval", "cold cycles", "warm cycles", "identical")
	for i, iv := range WarmstartIntervals {
		c, w := cold[i].Result().Cycles, warm[i].Result().Cycles
		fmt.Fprintf(&b, "%-10d %15d %15d %10v\n", iv, c, w, c == w)
	}
	fmt.Fprintf(&b, "\nwall clock (serial-equivalent): cold sweep %.2fs; discovery %.2fs + warm prefix %.2fs + tails %.2fs\n",
		coldTime.Seconds(), discoveryTime.Seconds(), prefixTime.Seconds(), tailsTime.Seconds())
	fmt.Fprintf(&b, "warm-start speedup: %.2fx (%.2fx charging discovery)\n", speedup, withDiscovery)
	return b.String(), nil
}
