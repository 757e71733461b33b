// Package aos implements the adaptive optimization system (§3.2): a
// timer-based sampler records which method the CPU is executing at
// each tick; methods sampled often enough are recompiled with the
// optimizing compiler when a static cost/benefit model predicts the
// recompilation pays for itself. A recorded run produces the
// pre-generated compilation plan used by the paper's pseudo-adaptive
// measurement configuration (§6.1), which guarantees every measured
// run optimizes exactly the same methods.
package aos

import (
	"fmt"
	"sort"

	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// levelSpec models one optimization level in the cost/benefit model.
type levelSpec struct {
	level int
	// speedup is the expected execution-rate improvement over baseline
	// code (Jikes uses static per-level constants).
	speedup float64
	// compileCyclesPerBC is the compilation cost per bytecode.
	compileCyclesPerBC uint64
}

// The AOS operating point: a scaled Jikes-like configuration.
const (
	// sampleIntervalCycles is the timer-tick period (Jikes samples the
	// call stack on every OS timer interrupt).
	sampleIntervalCycles = 100_000
	// minSamples gates recompilation consideration.
	minSamples = 4
)

// levels are the optimization levels the cost/benefit model weighs,
// ordered by level ascending.
var levels = []levelSpec{
	{level: 1, speedup: 2.0, compileCyclesPerBC: 6_000},
	{level: 2, speedup: 2.6, compileCyclesPerBC: 15_000},
}

// AOS is the adaptive optimization system; it implements
// runtime.Ticker.
type AOS struct {
	vm *runtime.VM

	deadline uint64
	samples  map[int]uint64 // methodID -> timer samples
	level    map[int]int    // methodID -> current opt level
	plan     runtime.CompilePlan

	recompilations uint64
	compileCycles  uint64
}

// New builds the AOS. Call Attach to start sampling.
func New(vm *runtime.VM) *AOS {
	return &AOS{
		vm:      vm,
		samples: make(map[int]uint64),
		level:   make(map[int]int),
		plan:    make(runtime.CompilePlan),
	}
}

// Attach registers the AOS sampler with the VM.
func (a *AOS) Attach() {
	a.deadline = a.vm.CPU.Cycles() + sampleIntervalCycles
	a.vm.AddTicker(a)
}

// Deadline implements runtime.Ticker.
func (a *AOS) Deadline() uint64 { return a.deadline }

// Tick implements runtime.Ticker: one timer sample plus any triggered
// recompilation.
func (a *AOS) Tick() {
	c := a.vm.CPU
	a.deadline = c.Cycles() + sampleIntervalCycles

	body, ok := a.vm.Table.Lookup(c.PC)
	if !ok {
		return
	}
	m := body.Method
	a.samples[m.ID]++
	a.consider(m)
}

// consider applies the cost/benefit model: recompile when the expected
// future savings exceed the compilation cost (§3.2's static model).
func (a *AOS) consider(m *classfile.Method) {
	n := a.samples[m.ID]
	if n < minSamples {
		return
	}
	cur := a.level[m.ID]
	code, ok := m.Code.(*bytecode.Code)
	if !ok {
		return
	}
	for _, spec := range levels {
		if spec.level <= cur {
			continue
		}
		curSpeedup := 1.0
		for _, s := range levels {
			if s.level == cur {
				curSpeedup = s.speedup
			}
		}
		// Assume the method keeps its observed share of execution for
		// as long again as it has run so far (Jikes' future-equals-past
		// estimate).
		futureCycles := float64(n * sampleIntervalCycles)
		benefit := futureCycles * (1 - curSpeedup/spec.speedup)
		cost := float64(uint64(code.Size()) * spec.compileCyclesPerBC)
		if benefit <= cost {
			continue
		}
		compileCost := uint64(code.Size()) * spec.compileCyclesPerBC
		a.vm.CPU.AddCycles(compileCost)
		a.compileCycles += compileCost
		if err := a.vm.CompileMethod(m, spec.level); err != nil {
			// Methods the optimizing compiler cannot handle stay at
			// their current level.
			return
		}
		a.level[m.ID] = spec.level
		a.plan[m.ID] = spec.level
		a.recompilations++
		return
	}
}

// Plan returns the recorded compilation plan (methodID -> level) for
// pseudo-adaptive replay.
func (a *AOS) Plan() runtime.CompilePlan {
	out := make(runtime.CompilePlan, len(a.plan))
	for k, v := range a.plan {
		out[k] = v
	}
	return out
}

// Recompilations returns how many recompilations were performed.
func (a *AOS) Recompilations() uint64 { return a.recompilations }

// CompileCycles returns the cycles charged for recompilation.
func (a *AOS) CompileCycles() uint64 { return a.compileCycles }

// Report renders the hot-method table for diagnostics.
func (a *AOS) Report(topN int) string {
	type row struct {
		id int
		n  uint64
	}
	var rows []row
	for id, n := range a.samples {
		rows = append(rows, row{id, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].id < rows[j].id
	})
	if len(rows) > topN {
		rows = rows[:topN]
	}
	out := fmt.Sprintf("aos: %d recompilations\n", a.recompilations)
	for _, r := range rows {
		m := a.vm.U.Method(r.id)
		out += fmt.Sprintf("  %-32s %6d samples  level %d\n", m.QualifiedName(), r.n, a.level[r.id])
	}
	return out
}
