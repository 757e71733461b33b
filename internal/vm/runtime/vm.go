// Package runtime is the virtual machine core: it owns the simulated
// address-space layout, the object model, the dispatch tables, the
// trap handler that services compiled code (allocation, results,
// exceptions), GC root enumeration via the compilers' GC maps, and the
// execution loop that interleaves application progress with the
// "threads" of the VM (the AOS sampler and the HPM collector thread),
// all in deterministic simulated time.
package runtime

import (
	"fmt"

	"hpmvm/internal/gc/heap"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/hw/mem"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/mcmap"
)

// Collector is the garbage-collection policy plugged into the VM.
// Implementations: the generational mark-sweep collector with
// co-allocation (gc/genms) and the generational copying collector
// (gc/gencopy).
type Collector interface {
	// Name identifies the policy ("GenMS", "GenCopy").
	Name() string
	// Alloc returns a fresh, uninitialized cell of the given size for
	// a new object, running collections as needed. It returns 0 only
	// when the heap is genuinely exhausted (OOM).
	Alloc(size uint64) uint64
	// Collections returns (minor, major) collection counts.
	Collections() (minor, major uint64)
	// HeapLimit returns the configured total heap budget in bytes.
	HeapLimit() uint64
}

// Ticker is periodic VM-internal work driven by simulated time (the
// AOS method sampler, the HPM collector thread's poll loop).
type Ticker interface {
	// Deadline returns the cycle count at which Tick should next run.
	Deadline() uint64
	// Tick performs the work and must advance Deadline.
	Tick()
}

// StackSize is the machine call-stack budget.
const StackSize = 512 * 1024

// VM ties the simulated hardware, the compiled-code universe, and the
// collector together.
type VM struct {
	U    *classfile.Universe
	Mem  *mem.Memory
	Hier *cache.Hierarchy
	CPU  *cpu.CPU

	Table     *mcmap.Table
	Collector Collector
	Immortal  *heap.BumpSpace

	// OptInfo holds, per method ID, the latest optimizing-compiler
	// result (IR and access pairs) for the monitor. The concrete type
	// is *opt.Result; it is declared as any to keep the package graph
	// acyclic (runtime must not import the compiler it drives).
	optInfo map[int]any

	tickers []Ticker

	// sampler, when non-nil, switches the run loop into sampled
	// simulation: functional fast-forward alternating with detailed
	// measured regions (see sampling.go). Exact-mode runs never touch
	// it beyond one nil check per scheduling round.
	sampler *Sampler

	// cancel, when non-nil, is polled from the run loop at safepoint
	// granularity (see CancelCheckCycles); a non-nil return aborts the
	// run with that error. Installed by core.System.RunContext.
	cancel func() error

	// vmState is what a snapshot serializes, beside the immortal space.
	vmState

	// bootDone marks the end of the boot sequence (BuildDispatch +
	// CompileAll); compilations after this point are recorded in
	// recompileLog so a restored system can replay them and rebuild the
	// exact code layout of the snapshot's origin (see snapshot.go).
	bootDone bool

	// levels tracks each method's current optimization level so a
	// relocation (CompileMethod at the same level) preserves it. Kept
	// by CompileMethod; never serialized — boot and recompile-log
	// replay rebuild it deterministically.
	levels map[int]int

	// Cost model for VM services.
	AllocTrapCycles uint64 // fixed overhead per allocation trap

	// onRecompile hooks observe method recompilation (monitor refresh).
	onRecompile []func(methodID int)
}

// vmState is the VM's serialized mutable state (snapshot.go walks it in
// this order): emitted results, the failure and start flags, the
// allocation counters and the post-boot recompile log.
type vmState struct {
	results       []int64
	failure       error
	started       bool
	allocations   uint64
	allocatedByte uint64
	recompileLog  []recompileEntry
}

// The memory's page directory must span the whole layout: an address
// above it would pay a map lookup on every load and store.
const _ = uint64(mem.DirectoryEnd - heap.LOSEnd)

// New builds a VM over fresh hardware with the default P4 hierarchy.
func New(u *classfile.Universe, hierCfg cache.Config) *VM {
	m := mem.New()
	h := cache.New(hierCfg)
	c := cpu.New(m, h, cpu.DefaultConfig())
	vm := &VM{
		U:               u,
		Mem:             m,
		Hier:            h,
		CPU:             c,
		Table:           &mcmap.Table{},
		Immortal:        heap.NewBumpSpace("immortal", heap.ImmortalBase, heap.ImmortalEnd),
		optInfo:         make(map[int]any),
		levels:          make(map[int]int),
		AllocTrapCycles: 30,
	}
	c.SetTrapHandler(vm)
	return vm
}

// recompileEntry records one post-boot (re)compilation in program
// order. Replaying the log against a freshly booted VM reproduces the
// origin's code layout deterministically, so snapshots never need to
// serialize machine code or method metadata.
type recompileEntry struct {
	methodID int
	level    int
}

// MarkBootComplete ends the boot phase: subsequent CompileMethod calls
// are appended to the recompile log. Called once, after CompileAll.
func (vm *VM) MarkBootComplete() { vm.bootDone = true }

// AddTicker registers periodic VM work.
func (vm *VM) AddTicker(t Ticker) { vm.tickers = append(vm.tickers, t) }

// OnRecompile registers a hook invoked after a method is recompiled.
func (vm *VM) OnRecompile(fn func(methodID int)) {
	vm.onRecompile = append(vm.onRecompile, fn)
}

// InstallPrefetchSites models recompiling the methods owning the given
// PCs with software prefetch instructions injected: every subsequent
// execution of a site PC issues a prefetch of its access address plus
// the site's delta. Method bodies do not move (the "recompile" only
// adds prefetches), so nothing is appended to the recompile log; the
// live site table is hardware state carried by the cache snapshot, and
// the optimization that installed it re-derives its own view on
// restore. A nil or empty map uninstalls all sites.
func (vm *VM) InstallPrefetchSites(sites map[uint64]int64) {
	vm.Hier.SetSwPrefetchSites(sites)
}

// SetOptInfo records the optimizing-compiler result for a method.
func (vm *VM) SetOptInfo(methodID int, info any) { vm.optInfo[methodID] = info }

// OptInfo returns the optimizing-compiler result for a method, or nil.
func (vm *VM) OptInfo(methodID int) any { return vm.optInfo[methodID] }

// Results returns the values the program emitted via the result trap.
func (vm *VM) Results() []int64 { return vm.results }

// Failure returns the fatal error raised by a trap (null dereference,
// out-of-bounds, out-of-memory), or nil.
func (vm *VM) Failure() error { return vm.failure }

// Allocations returns the object count and byte count allocated.
func (vm *VM) Allocations() (objects, bytes uint64) {
	return vm.allocations, vm.allocatedByte
}

// fail records a fatal VM error and halts the CPU.
func (vm *VM) fail(format string, args ...any) {
	if vm.failure == nil {
		loc := ""
		if m, ok := vm.Table.Lookup(vm.CPU.PC); ok {
			bci, _ := m.BytecodeAt(vm.CPU.PC)
			loc = fmt.Sprintf(" at %s bci %d (pc %#x)", m.Method.QualifiedName(), bci, vm.CPU.PC)
		}
		vm.failure = fmt.Errorf("vm: %s%s", fmt.Sprintf(format, args...), loc)
	}
	vm.CPU.Halt(1)
}

// Start prepares the machine to execute the given entry method. The
// entry method must take no arguments. Call after CompileAll.
func (vm *VM) Start(entry *classfile.Method) error {
	if len(entry.Args) != 0 {
		return fmt.Errorf("runtime: entry method %s must take no arguments", entry.QualifiedName())
	}
	entryAddr := vm.Mem.Read8(vm.CPU.Config().MethodTableBase + uint64(entry.ID)*8)
	if entryAddr == 0 {
		return fmt.Errorf("runtime: entry method %s not compiled", entry.QualifiedName())
	}
	sp := uint64(heap.StackTop) - 8
	vm.Mem.Write8(sp, 0) // sentinel return address: Ret from entry halts
	vm.CPU.SP = sp
	vm.CPU.FP = 0
	vm.CPU.PC = entryAddr
	vm.started = true
	return nil
}

// CancelCheckCycles is the safepoint poll quantum: with a cancel hook
// installed, the run loop pauses at least this often (in simulated
// cycles) to poll it. The pause points are the same scheduling points
// tickers run at — the application is between instructions with no GC
// in progress, so aborting there is always safe. The quantum only caps
// how long the loop runs between polls; it never changes when tickers
// fire or how cycles accumulate, so a run with an unfired cancel hook
// is cycle-identical to one without (pinned by TestRunContextIdentical).
const CancelCheckCycles = 250_000

// SetCancel installs (or, with nil, removes) the cooperative
// cancellation hook polled by Run. Must not be called while Run is
// executing.
func (vm *VM) SetCancel(f func() error) { vm.cancel = f }

// Run executes until the program halts or maxCycles elapse (0 means no
// limit). It returns the program's failure, if any, or the cancel
// hook's error if the run was aborted.
func (vm *VM) Run(maxCycles uint64) error {
	_, err := vm.run(maxCycles, 0)
	return err
}

// RunUntil executes like Run but additionally pauses — returning
// (true, nil) — once the cycle counter reaches pauseAt (0 means no
// pause point). A paused VM sits at a scheduling point: between
// instructions, outside any trap or ticker, exactly where the
// uninterrupted run would have checked deadlines, so execution resumed
// with Run/RunUntil is instruction-for-instruction identical to a run
// that never paused (pinned by the core snapshot determinism tests).
// If the program halts before pauseAt, RunUntil returns (false, err)
// like Run; a pauseAt at or beyond a non-zero maxCycles is
// unreachable and yields the usual cycle-budget failure.
func (vm *VM) RunUntil(maxCycles, pauseAt uint64) (paused bool, err error) {
	return vm.run(maxCycles, pauseAt)
}

func (vm *VM) run(maxCycles, pauseAt uint64) (bool, error) {
	if !vm.started {
		return false, fmt.Errorf("runtime: Run before Start")
	}
	c := vm.CPU
	for !c.Halted() {
		if vm.cancel != nil {
			if err := vm.cancel(); err != nil {
				return false, fmt.Errorf("runtime: run aborted after %d cycles: %w", c.Cycles(), err)
			}
		}
		// Find the earliest ticker deadline.
		next := ^uint64(0)
		for _, t := range vm.tickers {
			if d := t.Deadline(); d < next {
				next = d
			}
		}
		if maxCycles != 0 && c.Cycles() >= maxCycles {
			vm.fail("cycle budget of %d exhausted", maxCycles)
			break
		}
		if pauseAt != 0 && c.Cycles() >= pauseAt {
			return true, nil
		}
		if maxCycles != 0 && next > maxCycles {
			next = maxCycles
		}
		if pauseAt != 0 && next > pauseAt {
			next = pauseAt
		}
		if vm.cancel != nil {
			if q := c.Cycles() + CancelCheckCycles; q < next {
				next = q
			}
		}
		// Nothing non-local can fire before next (ticker deadlines,
		// cycle budget, pause point, cancel safepoint all folded in), so
		// let the CPU run unchecked to that horizon in its fast path.
		// In sampled mode the region scheduler drives the CPU instead,
		// with identical horizon semantics.
		if vm.sampler != nil {
			vm.sampler.advance(next)
		} else {
			c.RunCycles(next)
		}
		if c.Halted() {
			break
		}
		now := c.Cycles()
		for _, t := range vm.tickers {
			if t.Deadline() <= now {
				c.SetUserMode(false)
				t.Tick()
				c.SetUserMode(true)
			}
		}
	}
	return false, vm.failure
}

// RunToInstret executes until the retired-instruction counter reaches
// target (or the program halts), firing tickers exactly as Run would.
// Stopping is at an instruction boundary, not a scheduling point, so
// the machine state equals the uninterrupted run's state at the same
// instruction — the keystone sampled-vs-exact tests use this to walk
// an exact-mode machine to the instruction boundaries of a sampled
// run's measured regions. Exact mode only: in sampled mode the region
// scheduler owns instruction accounting.
func (vm *VM) RunToInstret(target uint64) error {
	if !vm.started {
		return fmt.Errorf("runtime: RunToInstret before Start")
	}
	if vm.sampler != nil {
		return fmt.Errorf("runtime: RunToInstret on a sampled-mode VM")
	}
	c := vm.CPU
	for !c.Halted() && c.Instret() < target {
		next := ^uint64(0)
		for _, t := range vm.tickers {
			if d := t.Deadline(); d < next {
				next = d
			}
		}
		c.RunBounded(next, target-c.Instret())
		if c.Halted() {
			break
		}
		now := c.Cycles()
		for _, t := range vm.tickers {
			if t.Deadline() <= now {
				c.SetUserMode(false)
				t.Tick()
				c.SetUserMode(true)
			}
		}
	}
	return vm.failure
}

// Cycles returns the simulated execution time so far.
func (vm *VM) Cycles() uint64 { return vm.CPU.Cycles() }
