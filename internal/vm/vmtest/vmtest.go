// Package vmtest provides small helpers for tests that need to build,
// compile and execute bytecode programs on the simulated platform
// without pulling in the full benchmark harness.
package vmtest

import (
	"fmt"

	"hpmvm/internal/gc/gencopy"
	"hpmvm/internal/gc/genms"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// Options controls execution.
type Options struct {
	// Plan is the compilation plan (nil = all baseline).
	Plan runtime.CompilePlan
	// Heap is the heap budget (default 32 MB).
	Heap uint64
	// GenCopy selects the copying collector instead of GenMS.
	GenCopy bool
	// MaxCycles bounds the run (default 2e9).
	MaxCycles uint64
}

// AllOpt returns a plan compiling every method at the given level.
func AllOpt(u *classfile.Universe, level int) runtime.CompilePlan {
	plan := make(runtime.CompilePlan)
	for _, m := range u.Methods() {
		if m.Code != nil {
			plan[m.ID] = level
		}
	}
	return plan
}

// Run lays out the universe if needed, boots a fresh VM, executes
// entry and returns the result log. The returned VM allows deeper
// inspection.
func Run(u *classfile.Universe, entry *classfile.Method, opts Options) ([]int64, *runtime.VM, error) {
	if opts.Heap == 0 {
		opts.Heap = 32 << 20
	}
	if opts.MaxCycles == 0 {
		opts.MaxCycles = 2_000_000_000
	}
	vm := runtime.New(u, cache.DefaultP4())
	if opts.GenCopy {
		gencopy.New(vm, opts.Heap)
	} else {
		genms.New(vm, opts.Heap)
	}
	vm.BuildDispatch()
	if err := vm.CompileAll(opts.Plan); err != nil {
		return nil, nil, err
	}
	if err := vm.Start(entry); err != nil {
		return nil, nil, err
	}
	if err := vm.Run(opts.MaxCycles); err != nil {
		return nil, vm, err
	}
	if vm.CPU.ExitStatus() != 0 {
		return vm.Results(), vm, fmt.Errorf("vmtest: exit status %d", vm.CPU.ExitStatus())
	}
	return vm.Results(), vm, nil
}
