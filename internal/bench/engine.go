package bench

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"time"

	"hpmvm/internal/core"
	"hpmvm/internal/stats"
)

// This file is the parallel experiment execution engine. Every run an
// experiment performs — one (workload, heap size, config, seed) tuple —
// constructs a fresh Program universe and a fresh core.System and
// shares no state with any other run, so independent runs can execute
// on separate goroutines without changing a single simulated number.
// The engine fans runs out across a bounded worker pool and the
// experiment code assembles results in submission order after Wait, so
// the formatted output is byte-identical to a serial execution
// regardless of the jobs setting (see TestParallelSweepByteIdentical).

// DefaultJobs returns the default worker-pool width: GOMAXPROCS.
func DefaultJobs() int { return stdruntime.GOMAXPROCS(0) }

// ProgressFunc receives live completion updates: done runs out of the
// total submitted so far, and the label of the run that just finished.
//
// Thread-safety contract: the engine invokes the callback from its
// pool-worker goroutines, but always under the engine's mutex, so
// invocations are serialized — the callback may read and write its own
// shared state without additional locking, and done is strictly
// increasing across calls. Two obligations remain with the caller:
//
//   - Other goroutines reading state the callback writes need their own
//     synchronization while runs are in flight. Engine.Wait is the
//     ready-made sync point: it returns only after every callback has
//     completed, with a happens-before edge, so post-Wait reads are safe
//     without locks (pinned by TestProgressSharedStateRace).
//   - Keep the callback fast and never call back into the engine — it
//     runs under the same lock Submit/Wait/Stats take, so a re-entrant
//     call deadlocks and a slow callback stalls every worker's
//     completion path.
type ProgressFunc func(done, total int, label string)

// EngineStats is the engine's per-run wall-clock and simulation-volume
// accounting. SimCycles sums the final simulated cycle counter of every
// completed program run, so SimCycles/RunTime is the engine's
// serial-equivalent simulation throughput (warm-started runs report
// their final counter, which includes the restored prefix).
type EngineStats struct {
	Jobs      int           // worker-pool width
	Runs      int           // completed runs
	RunTime   time.Duration // summed wall clock of all completed runs
	SimCycles uint64        // summed simulated cycles of completed runs
}

// Engine is a bounded worker pool for independent experiment runs.
// Submit schedules work; Wait blocks until everything finished and
// returns the first error. An Engine may be reused for several
// submit/wait rounds; accounting accumulates across them.
type Engine struct {
	jobs int
	sem  chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	err       error
	submitted int
	done      int
	runTime   time.Duration
	simCycles uint64
	progress  ProgressFunc
}

// NewEngine creates an engine with the given worker-pool width
// (jobs <= 0 selects DefaultJobs).
func NewEngine(jobs int) *Engine {
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	return &Engine{jobs: jobs, sem: make(chan struct{}, jobs)}
}

// SetProgress registers the live progress callback (nil disables). It
// may be called concurrently with Submit, but a registration races
// against completions already in flight — register before the first
// Submit to observe every run. See ProgressFunc for the callback's
// thread-safety contract.
func (e *Engine) SetProgress(f ProgressFunc) {
	e.mu.Lock()
	e.progress = f
	e.mu.Unlock()
}

// Jobs returns the worker-pool width.
func (e *Engine) Jobs() int { return e.jobs }

// Stats returns a snapshot of the per-run accounting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{Jobs: e.jobs, Runs: e.done, RunTime: e.runTime, SimCycles: e.simCycles}
}

// AddSim credits a completed run's simulated cycles to the engine's
// throughput accounting. RunAsync, RepeatAsync and RunFrom call it
// themselves; only custom Submit closures that execute their own
// simulations need to.
func (e *Engine) AddSim(cycles uint64) {
	e.mu.Lock()
	e.simCycles += cycles
	e.mu.Unlock()
}

// Submit schedules f on the pool. After the first error, remaining
// submissions are skipped (fail fast); the error surfaces from Wait.
func (e *Engine) Submit(label string, f func() error) {
	e.submit(label, f, false, nil)
}

// submit schedules f. In isolated mode the run's error stays with its
// handle instead of latching into the engine's fail-fast error, and
// the run executes even after another submission failed — the mode a
// long-lived service needs to keep one engine across many independent
// requests (one cancelled or failed request must not wedge the pool).
// onSkip, when non-nil, is invoked if the fail-fast path drops f
// without running it, so futures over f can still complete.
func (e *Engine) submit(label string, f func() error, isolated bool, onSkip func()) {
	e.mu.Lock()
	e.submitted++
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.sem <- struct{}{}
		defer func() { <-e.sem }()

		if !isolated {
			e.mu.Lock()
			failed := e.err != nil
			e.mu.Unlock()
			if failed {
				if onSkip != nil {
					onSkip()
				}
				return
			}
		}

		start := time.Now()
		err := f()
		elapsed := time.Since(start)

		e.mu.Lock()
		e.done++
		e.runTime += elapsed
		if !isolated && err != nil && e.err == nil {
			e.err = err
		}
		if e.progress != nil && err == nil {
			e.progress(e.done, e.submitted, label)
		}
		e.mu.Unlock()
	}()
}

// Wait blocks until all submitted work finished and returns the first
// error encountered.
func (e *Engine) Wait() error {
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// RunHandle is the future for one Run submitted to an engine. For
// RunAsync, accessors are valid only after Engine.Wait returns nil;
// for RunAsyncContext, Wait on the handle itself instead.
type RunHandle struct {
	res  *Result
	sys  *core.System
	err  error
	done chan struct{}
}

// Result returns the run's metrics.
func (h *RunHandle) Result() *Result { return h.res }

// Sys returns the run's live System (time series, policy decisions).
func (h *RunHandle) Sys() *core.System { return h.sys }

// Wait blocks until this run finished and returns its error. Unlike
// Engine.Wait it synchronizes on one run only, so independent requests
// sharing an engine do not wait on each other.
func (h *RunHandle) Wait() error {
	<-h.done
	return h.err
}

// RunAsync schedules one program run on the engine and returns its
// future. The run participates in the engine's fail-fast error
// (batch-experiment semantics).
func (e *Engine) RunAsync(b Builder, cfg RunConfig, label string) *RunHandle {
	return e.runAsync(context.Background(), b, cfg, label, false)
}

// RunAsyncContext schedules one cancellable program run. The run is
// isolated: its error is delivered through the handle's Wait rather
// than latched into the engine, and it executes even if a previous
// isolated run failed — a long-lived server keeps submitting to one
// engine. A ctx already cancelled at dequeue time skips the simulation
// entirely.
func (e *Engine) RunAsyncContext(ctx context.Context, b Builder, cfg RunConfig, label string) *RunHandle {
	return e.runAsync(ctx, b, cfg, label, true)
}

func (e *Engine) runAsync(ctx context.Context, b Builder, cfg RunConfig, label string, isolated bool) *RunHandle {
	h := &RunHandle{done: make(chan struct{})}
	e.submit(label, func() error {
		defer close(h.done)
		if err := ctx.Err(); err != nil {
			h.err = err
			return err
		}
		res, sys, err := RunContext(ctx, b, cfg)
		if err != nil {
			h.err = err
			return err
		}
		e.AddSim(res.Cycles)
		h.res, h.sys = res, sys
		return nil
	}, isolated, func() {
		// Fail-fast skip: another batch run already failed. Surface a
		// per-handle error so Wait never hangs; Engine.Wait still
		// reports the original failure.
		h.err = errSkipped
		close(h.done)
	})
	return h
}

// errSkipped marks a RunHandle whose run was dropped by the engine's
// fail-fast path after another submission failed.
var errSkipped = errors.New("bench: run skipped after earlier failure")

// SubmitIsolated schedules an arbitrary task on the pool with service
// semantics (like RunAsyncContext): its error stays out of the
// engine's fail-fast latch and is returned by the wait function, which
// blocks until the task finished. A long-lived server uses it for
// work that is not a plain program run — e.g. computing a warm-start
// prefix snapshot — while still respecting the worker-pool width.
func (e *Engine) SubmitIsolated(label string, f func() error) (wait func() error) {
	done := make(chan struct{})
	var err error
	e.submit(label, func() error {
		defer close(done)
		err = f()
		return err
	}, true, nil)
	return func() error {
		<-done
		return err
	}
}

// RepeatHandle is the future for a RepeatAsync (reps runs with
// distinct seeds). Each repetition is a separate pool run, so
// repetitions of one configuration overlap with everything else.
// Accessors are valid only after Engine.Wait returns nil.
type RepeatHandle struct {
	times []float64
}

// Mean returns the mean execution time (simulated cycles).
func (h *RepeatHandle) Mean() float64 { return stats.Mean(h.times) }

// StdDev returns the standard deviation over the repetitions.
func (h *RepeatHandle) StdDev() float64 { return stats.StdDev(h.times) }

// RepeatAsync schedules reps runs of the same configuration with
// distinct seeds (cfg.Seed + i*7919; the paper reports averages over 3
// executions, §6.1) and returns their aggregate future. reps < 1
// schedules one failing task instead, so Wait reports it: a mean over
// no runs is NaN, not a result.
func (e *Engine) RepeatAsync(b Builder, cfg RunConfig, reps int, label string) *RepeatHandle {
	if reps < 1 {
		e.Submit(label, func() error {
			return fmt.Errorf("reps must be at least 1, got %d", reps)
		})
		return &RepeatHandle{}
	}
	h := &RepeatHandle{times: make([]float64, reps)}
	for i := 0; i < reps; i++ {
		i := i
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		e.Submit(label, func() error {
			r, _, err := Run(b, c)
			if err != nil {
				return err
			}
			e.AddSim(r.Cycles)
			h.times[i] = float64(r.Cycles)
			return nil
		})
	}
	return h
}
