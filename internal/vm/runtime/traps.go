package runtime

import (
	"hpmvm/internal/gc/freelist"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/vm/classfile"
)

// MaxArrayLength bounds array allocations (the header stores the
// length in 32 bits).
const MaxArrayLength = 1 << 31

// Trap implements cpu.TrapHandler: the VM entrypoints that compiled
// code reaches via trap instructions.
func (vm *VM) Trap(c *cpu.CPU, num int64) {
	switch num {
	case cpu.TrapExit:
		c.Halt(int64(c.Regs[1]))

	case cpu.TrapAllocObject:
		classID := int(c.Regs[1])
		cl := vm.U.Class(classID)
		c.SetUserMode(false)
		c.AddCycles(vm.AllocTrapCycles)
		addr := vm.allocate(cl, cl.InstanceSize, 0)
		c.SetUserMode(true)
		c.Regs[0] = addr

	case cpu.TrapAllocArray:
		classID := int(c.Regs[1])
		n := int64(c.Regs[2])
		cl := vm.U.Class(classID)
		if n < 0 || n >= MaxArrayLength {
			vm.fail("array allocation with invalid length %d", n)
			return
		}
		c.SetUserMode(false)
		c.AddCycles(vm.AllocTrapCycles)
		addr := vm.allocate(cl, cl.ArraySize(uint64(n)), uint64(n))
		c.SetUserMode(true)
		c.Regs[0] = addr

	case cpu.TrapResult:
		vm.results = append(vm.results, int64(c.Regs[1]))

	case cpu.TrapNullPtr:
		vm.fail("null pointer dereference")
	case cpu.TrapBounds:
		vm.fail("array index out of bounds")
	case cpu.TrapDivZero:
		vm.fail("integer division by zero")

	case cpu.TrapYield:
		// Voluntary safepoint; nothing to do in the cooperative model.

	default:
		vm.fail("unknown trap %d", num)
	}
}

// allocate obtains and initializes a new object. It runs in VM
// ("kernel") mode; a collection may occur inside Collector.Alloc, which
// is why this must only be reached from a GC point.
func (vm *VM) allocate(cl *classfile.Class, size, arrayLen uint64) uint64 {
	if vm.Collector == nil {
		vm.fail("allocation with no collector configured")
		return 0
	}
	// In sampled mode the allocation (and any collection inside it)
	// runs bracketed: the detailed lane is forced on and the cycles are
	// accounted exactly rather than sampled (see Sampler.serviceBegin).
	s := vm.sampler
	if s != nil {
		s.serviceBegin()
	}
	addr := vm.Collector.Alloc(size)
	if s != nil {
		s.serviceEnd()
	}
	if addr == 0 {
		vm.fail("out of memory allocating %d bytes of %s (heap limit %d)",
			size, cl.Name, vm.Collector.HeapLimit())
		return 0
	}
	vm.initObject(addr, cl, size, arrayLen)
	return addr
}

// LargeObjectThreshold is the size above which objects bypass the
// nursery/free-list and go straight to the large object space.
const LargeObjectThreshold = freelist.MaxCellSize
