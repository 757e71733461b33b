package runtime

import (
	"fmt"

	"hpmvm/internal/hw/cpu"
)

// Root is one GC root location: either a CPU register or a stack slot
// address. Collectors read roots with RootGet and, for moving
// collections, update them with RootSet.
type Root struct {
	IsReg bool
	Reg   int
	Addr  uint64
}

// RootGet reads the reference held in a root (timed for memory roots).
func (vm *VM) RootGet(r Root) uint64 {
	if r.IsReg {
		return vm.CPU.Regs[r.Reg]
	}
	return vm.CPU.LoadWord(r.Addr)
}

// RootSet updates a root after its referent moved.
func (vm *VM) RootSet(r Root, v uint64) {
	if r.IsReg {
		vm.CPU.Regs[r.Reg] = v
	} else {
		vm.CPU.StoreWord(r.Addr, v)
	}
}

// CollectRoots walks the machine stack using the compilers' GC maps
// and returns every live reference location. It must be called only at
// a GC point, i.e. while the CPU is stopped at an allocation trap or a
// call instruction; the innermost frame's map covers live registers,
// outer frames contribute their frame slots (registers are caller-
// saved, so nothing survives in registers across a call).
func (vm *VM) CollectRoots() []Root {
	var roots []Root
	c := vm.CPU

	pc := c.PC
	fp := c.FP
	innermost := true
	for {
		body, ok := vm.Table.Lookup(pc)
		if !ok {
			panic(fmt.Sprintf("runtime: GC with pc %#x outside compiled code", pc))
		}
		gp := body.GCPointAt(pc)
		if gp == nil {
			panic(fmt.Sprintf("runtime: GC at %#x (%s) which is not a GC point",
				pc, body.Method.QualifiedName()))
		}
		if innermost {
			for reg := 0; reg < cpu.NumRegs; reg++ {
				if gp.RefRegs&(1<<uint(reg)) != 0 {
					roots = append(roots, Root{IsReg: true, Reg: reg})
				}
			}
			innermost = false
		}
		for slot := 0; slot < body.FrameSlots && slot < 64; slot++ {
			if gp.RefSlots&(1<<uint(slot)) != 0 {
				addr := fp - 8*uint64(slot+1)
				roots = append(roots, Root{Addr: addr})
			}
		}
		// Walk to the caller: saved FP at [fp], return address at
		// [fp+8]. The entry frame carries a zero return address.
		retAddr := vm.CPU.LoadWord(fp + 8)
		if retAddr == 0 {
			break
		}
		// The GC point of an outer frame is its call instruction.
		pc = retAddr - cpu.InstrBytes
		fp = vm.CPU.LoadWord(fp)
	}
	return roots
}
