package runtime

import (
	"fmt"

	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/compiler/baseline"
	"hpmvm/internal/vm/compiler/opt"
	"hpmvm/internal/vm/mcmap"
)

// CompilePlan maps method IDs to optimization levels: level 0 means
// baseline, levels 1+ select the optimizing compiler. The paper's
// experiments run a "pseudo-adaptive" configuration where each program
// executes under a pre-generated plan so every run optimizes exactly
// the same methods (§6.1); plans are produced by recording an adaptive
// run (package aos).
type CompilePlan map[int]int

// BuildDispatch allocates the vtables in the immortal space and
// publishes the vtable map. Must run once before CompileAll.
func (vm *VM) BuildDispatch() {
	vtMapBase := vm.CPU.Config().VTableMapBase
	for _, cl := range vm.U.Classes() {
		if len(cl.VTable) == 0 {
			continue
		}
		vt := vm.Immortal.Alloc(uint64(8 * ((len(cl.VTable) + 1) &^ 1)))
		if vt == 0 {
			panic("runtime: immortal space exhausted for vtables")
		}
		vm.Mem.Write8(vtMapBase+uint64(cl.ID)*8, vt)
		// Entries are filled as methods get compiled.
	}
}

// CompileAll compiles every method that has bytecode: baseline by
// default, the optimizing compiler for methods named in the plan. This
// models the boot of the pseudo-adaptive configuration.
func (vm *VM) CompileAll(plan CompilePlan) error {
	for _, m := range vm.U.Methods() {
		if m.Code == nil {
			continue
		}
		level := 0
		if plan != nil {
			level = plan[m.ID]
		}
		if err := vm.CompileMethod(m, level); err != nil {
			return err
		}
	}
	return nil
}

// CompileMethod compiles (or recompiles) one method at the given level
// and publishes it in the dispatch tables. Previously installed bodies
// are marked obsolete but stay mapped (§4.2: compiled code lives in
// the immortal space and is never collected or moved).
func (vm *VM) CompileMethod(m *classfile.Method, level int) error {
	code, ok := m.Code.(*bytecode.Code)
	if !ok || code == nil {
		return fmt.Errorf("runtime: method %s has no bytecode", m.QualifiedName())
	}
	var body *mcmap.MCMap
	if level > 0 {
		res, err := opt.Compile(vm.U, vm.CPU, code, level)
		if err != nil {
			return err
		}
		body = res.Map
		vm.SetOptInfo(m.ID, res)
	} else {
		body = baseline.Compile(vm.U, vm.CPU, code)
	}

	// Obsolete any previous body for this method.
	for _, e := range vm.Table.Bodies() {
		if e.Method == m && !e.Obsolete {
			e.Obsolete = true
		}
	}
	vm.Table.Register(body)

	// Publish: method entry table slot, then every vtable slot bound
	// to this method (subclasses inherit the same *Method).
	vm.Mem.Write8(vm.CPU.Config().MethodTableBase+uint64(m.ID)*8, body.Start)
	if m.Virtual {
		vtMapBase := vm.CPU.Config().VTableMapBase
		for _, cl := range vm.U.Classes() {
			for slot, impl := range cl.VTable {
				if impl == m {
					vt := vm.Mem.Read8(vtMapBase + uint64(cl.ID)*8)
					vm.Mem.Write8(vt+uint64(slot)*8, body.Start)
				}
			}
		}
	}
	if vm.bootDone {
		vm.recompileLog = append(vm.recompileLog, recompileEntry{methodID: m.ID, level: level})
	}
	vm.levels[m.ID] = level
	for _, fn := range vm.onRecompile {
		fn(m.ID)
	}
	return nil
}

// padMethodID marks an InstallPad entry in the recompile log; the
// entry's level field carries the pad length in instructions.
const padMethodID = -1

// InstallPad appends n no-op instruction slots to the code space and
// returns their start address. Pads are the code-layout optimization's
// alignment tool: they shift the following body's cache-line placement
// without registering anything in the machine-code map (a pad is never
// executed, so samples cannot land in it). Post-boot pads are recorded
// in the recompile log as methodID -1 entries and replayed on restore,
// keeping the snapshot contract's code-layout determinism.
func (vm *VM) InstallPad(n int) uint64 {
	addr := vm.CPU.InstallCode(make([]cpu.Instr, n))
	if vm.bootDone {
		vm.recompileLog = append(vm.recompileLog, recompileEntry{methodID: padMethodID, level: n})
	}
	return addr
}

// RelocateMethods re-lays methods in the given order at the current
// end of the code space, each recompiled at its current optimization
// level with padInstrs[i] no-op slots installed ahead of it (0 for
// tight packing). Old bodies stay mapped but obsolete — frames already
// on the stack return into them safely — while the dispatch tables
// retarget new invocations at the relocated copies. Everything flows
// through CompileMethod/InstallPad, so the recompile log replays the
// relocation exactly on restore.
func (vm *VM) RelocateMethods(methodIDs, padInstrs []int) error {
	if len(methodIDs) != len(padInstrs) {
		return fmt.Errorf("runtime: relocate: %d methods but %d pads", len(methodIDs), len(padInstrs))
	}
	for i, id := range methodIDs {
		if id < 0 || id >= len(vm.U.Methods()) {
			return fmt.Errorf("runtime: relocate: method id %d not in universe", id)
		}
		if padInstrs[i] > 0 {
			vm.InstallPad(padInstrs[i])
		}
		if err := vm.CompileMethod(vm.U.Method(id), vm.levels[id]); err != nil {
			return err
		}
	}
	return nil
}

// MethodEntry returns the current entry address for a method.
func (vm *VM) MethodEntry(m *classfile.Method) uint64 {
	return vm.Mem.Read8(vm.CPU.Config().MethodTableBase + uint64(m.ID)*8)
}
