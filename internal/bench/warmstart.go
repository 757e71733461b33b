package bench

import (
	"context"
	"fmt"

	"hpmvm/internal/core"
)

// Warm starts: RunPrefix runs a workload once to a pause cycle and
// captures the encoded whole-system snapshot; RunFromSnapshot restores
// that snapshot into a fresh system under the same configuration and
// runs only the tail, byte-identical to the cold run (the restore
// contract, core.System.Restore). hpmvmd's warm_start_cycles requests
// ride these two.

// RunPrefix executes prog under cfg up to pauseAt simulated cycles and
// returns the encoded snapshot of the paused system, tagged with the
// workload name. It fails if the program finishes before the pause
// cycle — there is nothing to warm-start then. Cancelling ctx aborts
// the simulation at its next safepoint, as in RunContext.
func RunPrefix(ctx context.Context, b Builder, cfg RunConfig, pauseAt uint64) ([]byte, error) {
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
// (core.ErrSnapshotMismatch otherwise).
// Cancelling ctx aborts the tail at its next safepoint.
func RunFromSnapshot(ctx context.Context, b Builder, cfg RunConfig, snapshot []byte) (*Result, *core.System, error) {
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
