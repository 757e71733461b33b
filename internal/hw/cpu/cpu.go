package cpu

import (
	"fmt"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/mem"
	"hpmvm/internal/hw/pebs"
)

// TrapHandler services OpTrap instructions. It is implemented by the VM
// runtime; the CPU passes itself so the handler can read and write
// registers and memory. A handler that needs to stop execution calls
// Halt.
type TrapHandler interface {
	Trap(c *CPU, num int64)
}

// Config holds CPU cost-model parameters and the addresses of the
// runtime dispatch tables (set by the VM when it lays out its spaces).
type Config struct {
	CodeBase uint64 // base address of the code space

	// MethodTableBase is the simulated address of the method entry
	// table: entry for method id m lives at MethodTableBase + 8*m.
	// OpCallM loads its target from here (a JTOC-style indirection, so
	// recompilation can retarget all call sites at once).
	MethodTableBase uint64

	// VTableMapBase maps class IDs to vtable addresses: the vtable
	// pointer for class c lives at VTableMapBase + 8*c.
	VTableMapBase uint64

	// Cost model: extra cycles beyond the 1-cycle base per instruction.
	MulCycles         uint64 // extra cost of multiply
	DivCycles         uint64 // extra cost of divide/remainder
	TakenBranchCycles uint64 // extra cost of a taken branch/jump
	CallCycles        uint64 // extra cost of a call or return
	BarrierCycles     uint64 // extra cost of a reference-store barrier check
}

// DefaultConfig returns the standard cost model.
func DefaultConfig() Config {
	return Config{
		CodeBase:          0x0010_0000,
		MethodTableBase:   0x0008_0000,
		VTableMapBase:     0x000C_0000,
		MulCycles:         3,
		DivCycles:         20,
		TakenBranchCycles: 1,
		CallCycles:        2,
		BarrierCycles:     2,
	}
}

// Fault describes a fatal execution error (wild PC, unimplemented
// opcode, division by zero outside a guard, …). Faults indicate bugs in
// the compilers or runtime and abort the run via panic; tests catch
// them with recover.
type Fault struct {
	PC     uint64
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("cpu fault at pc=%#x: %s", f.PC, f.Reason)
}

// CPU is the simulated processor core.
type CPU struct {
	Mem  *mem.Memory
	Hier *cache.Hierarchy

	Regs [NumRegs]uint64
	SP   uint64
	FP   uint64
	PC   uint64

	cfg     Config
	code    []Instr
	dec     []decInstr // predecoded image of code, rebuilt lazily by runLoop
	handler TrapHandler

	// Barrier, when set, observes every reference store (slot address
	// and stored value) — the generational collectors' remembered-set
	// hook. The check itself costs BarrierCycles.
	Barrier func(slotAddr, value uint64)

	// ifetch, when non-nil, models instruction fetch (the opt-in
	// I-cache of the code-layout optimization): it is called once per
	// code-line transition with the new PC and returns the stall
	// cycles. lastFetchLine tracks the line the front end last fetched
	// so straight-line execution inside one line costs nothing, and so
	// the check is idempotent — runLoop and Step both test it, which
	// makes runLoop's delegation to Step charge each fetch exactly
	// once. Nil for every pre-framework configuration: the nil test is
	// the only new work on the hot path.
	ifetch        func(pc uint64) uint64
	ifetchShift   uint
	lastFetchLine uint64

	cycles   uint64
	instret  uint64
	halted   bool
	usermode bool

	// exitStatus is set by TrapExit via Halt.
	exitStatus int64
}

// New builds a CPU over the given memory and hierarchy.
func New(m *mem.Memory, h *cache.Hierarchy, cfg Config) *CPU {
	return &CPU{Mem: m, Hier: h, cfg: cfg, usermode: true}
}

// Config returns the CPU configuration.
func (c *CPU) Config() Config { return c.cfg }

// SetTrapHandler installs the VM's trap handler.
func (c *CPU) SetTrapHandler(h TrapHandler) { c.handler = h }

// Halted reports whether the CPU has stopped.
func (c *CPU) Halted() bool { return c.halted }

// Halt stops execution; status is the program exit status.
func (c *CPU) Halt(status int64) {
	c.halted = true
	c.exitStatus = status
}

// ExitStatus returns the status passed to Halt.
func (c *CPU) ExitStatus() int64 { return c.exitStatus }

// Cycles returns the global cycle counter, which includes instruction
// execution, memory hierarchy penalties, PEBS microcode and any cycles
// charged by the runtime for VM services.
func (c *CPU) Cycles() uint64 { return c.cycles }

// Instret returns the number of retired instructions.
func (c *CPU) Instret() uint64 { return c.instret }

// AddCycles charges n extra cycles (VM services, sampling microcode,
// interrupt handling). Implements part of pebs.CPUState.
func (c *CPU) AddCycles(n uint64) { c.cycles += n }

// SamplePC implements pebs.CPUState: the address of the instruction
// currently executing (PEBS reports the exact faulting instruction).
func (c *CPU) SamplePC() uint64 { return c.PC }

// SampleRegs implements pebs.CPUState.
func (c *CPU) SampleRegs(dst *[pebs.NumRegs]uint64) { *dst = c.Regs }

// CycleCount implements pebs.CPUState.
func (c *CPU) CycleCount() uint64 { return c.cycles }

// SetIFetch installs (or, with nil, removes) the instruction-fetch
// hook. lineSize is the fetch granularity in bytes (the I-cache line
// size; a power of two). Installing the hook invalidates the
// predecoded image: AddImm+Ld8 fusion is disabled under instruction
// fetch so every instruction passes the loop-top line-transition
// check (a fused tail crossing a line boundary would otherwise skip
// its fetch).
func (c *CPU) SetIFetch(fn func(pc uint64) uint64, lineSize int) {
	c.ifetch = fn
	c.ifetchShift = 0
	for 1<<c.ifetchShift < lineSize {
		c.ifetchShift++
	}
	c.lastFetchLine = ^uint64(0)
	c.dec = nil
}

// UserMode reports whether the CPU is executing application code (as
// opposed to VM services: GC, sample processing, compilation). Hardware
// event counting is restricted to user mode, mirroring the USR ring
// filter real PMUs provide; the paper's monitor likewise excludes
// events occurring inside VM code (§5.3).
func (c *CPU) UserMode() bool { return c.usermode }

// SetUserMode flips the privilege mode; the runtime enters "kernel"
// mode around GC, monitoring and compilation work.
func (c *CPU) SetUserMode(u bool) { c.usermode = u }

func (c *CPU) fault(reason string) {
	panic(&Fault{PC: c.PC, Reason: reason})
}

// InstallCode appends instructions to the code space and returns the
// address of the first one. The returned address is stable for the
// lifetime of the CPU (code is never moved; the VM allocates compiled
// code in the immortal space, §4.2).
func (c *CPU) InstallCode(instrs []Instr) uint64 {
	addr := c.cfg.CodeBase + uint64(len(c.code))*InstrBytes
	c.code = append(c.code, instrs...)
	return addr
}

// NextCodeAddr returns the address the next InstallCode call will
// return. Compilers use it to emit absolute branch targets before
// installation.
func (c *CPU) NextCodeAddr() uint64 {
	return c.cfg.CodeBase + uint64(len(c.code))*InstrBytes
}

// CodeSizeBytes returns the total installed code size in bytes.
func (c *CPU) CodeSizeBytes() uint64 { return uint64(len(c.code)) * InstrBytes }

// InstrAt returns the instruction at a code address (for disassembly
// and the monitor's sample decoding).
func (c *CPU) InstrAt(addr uint64) (Instr, bool) {
	if addr < c.cfg.CodeBase || (addr-c.cfg.CodeBase)%InstrBytes != 0 {
		return Instr{}, false
	}
	idx := (addr - c.cfg.CodeBase) / InstrBytes
	if idx >= uint64(len(c.code)) {
		return Instr{}, false
	}
	return c.code[idx], true
}

// --- Timed memory accessors -------------------------------------------------
//
// These are used both by the execution loop and by the runtime/GC (which
// run on the same core and therefore share the same caches and cycle
// counter — GC traffic evicting application data is a real effect the
// paper's collectors contend with).

// LoadWord performs a timed 64-bit load.
func (c *CPU) LoadWord(addr uint64) uint64 {
	c.cycles += c.Hier.Access(addr, 8, false)
	return c.Mem.Read8(addr)
}

// StoreWord performs a timed 64-bit store.
func (c *CPU) StoreWord(addr uint64, v uint64) {
	c.cycles += c.Hier.Access(addr, 8, true)
	c.Mem.Write8(addr, v)
}

// LoadHalf performs a timed 32-bit load (zero-extended).
func (c *CPU) LoadHalf(addr uint64) uint32 {
	c.cycles += c.Hier.Access(addr, 4, false)
	return c.Mem.Read4(addr)
}

// StoreHalf performs a timed 32-bit store.
func (c *CPU) StoreHalf(addr uint64, v uint32) {
	c.cycles += c.Hier.Access(addr, 4, true)
	c.Mem.Write4(addr, v)
}

// base resolves a memory-operand base register encoding.
func (c *CPU) base(r uint8) uint64 {
	switch r {
	case BaseSP:
		return c.SP
	case BaseFP:
		return c.FP
	case RegZero:
		return 0
	default:
		return c.Regs[r]
	}
}

func (c *CPU) setReg(r uint8, v uint64) {
	if r == RegZero {
		return
	}
	c.Regs[r] = v
}

func (c *CPU) reg(r uint8) uint64 {
	if r == RegZero {
		return 0
	}
	return c.Regs[r]
}

// Step executes a single instruction. It returns false once the CPU is
// halted.
func (c *CPU) Step() bool {
	if c.halted {
		return false
	}
	if c.PC < c.cfg.CodeBase {
		c.fault("PC outside code space")
	}
	idx := (c.PC - c.cfg.CodeBase) / InstrBytes
	if idx >= uint64(len(c.code)) {
		c.fault("PC beyond installed code")
	}
	in := c.code[idx]
	next := c.PC + InstrBytes
	if c.ifetch != nil {
		if line := c.PC >> c.ifetchShift; line != c.lastFetchLine {
			c.lastFetchLine = line
			c.cycles += c.ifetch(c.PC)
		}
	}
	c.cycles++
	c.instret++

	switch in.Op {
	case OpNop:

	case OpMovImm:
		c.setReg(in.Rd, uint64(in.Imm))
	case OpMov:
		c.setReg(in.Rd, c.reg(in.Rs1))

	case OpAdd:
		c.setReg(in.Rd, c.reg(in.Rs1)+c.reg(in.Rs2))
	case OpSub:
		c.setReg(in.Rd, c.reg(in.Rs1)-c.reg(in.Rs2))
	case OpMul:
		c.cycles += c.cfg.MulCycles
		c.setReg(in.Rd, uint64(int64(c.reg(in.Rs1))*int64(c.reg(in.Rs2))))
	case OpDiv:
		c.cycles += c.cfg.DivCycles
		d := int64(c.reg(in.Rs2))
		if d == 0 {
			c.trap(TrapDivZero)
			return !c.halted
		}
		c.setReg(in.Rd, uint64(int64(c.reg(in.Rs1))/d))
	case OpRem:
		c.cycles += c.cfg.DivCycles
		d := int64(c.reg(in.Rs2))
		if d == 0 {
			c.trap(TrapDivZero)
			return !c.halted
		}
		c.setReg(in.Rd, uint64(int64(c.reg(in.Rs1))%d))
	case OpAnd:
		c.setReg(in.Rd, c.reg(in.Rs1)&c.reg(in.Rs2))
	case OpOr:
		c.setReg(in.Rd, c.reg(in.Rs1)|c.reg(in.Rs2))
	case OpXor:
		c.setReg(in.Rd, c.reg(in.Rs1)^c.reg(in.Rs2))
	case OpShl:
		c.setReg(in.Rd, c.reg(in.Rs1)<<(c.reg(in.Rs2)&63))
	case OpShr:
		c.setReg(in.Rd, c.reg(in.Rs1)>>(c.reg(in.Rs2)&63))
	case OpSar:
		c.setReg(in.Rd, uint64(int64(c.reg(in.Rs1))>>(c.reg(in.Rs2)&63)))

	case OpAddImm:
		c.setReg(in.Rd, c.reg(in.Rs1)+uint64(in.Imm))
	case OpMulImm:
		c.cycles += c.cfg.MulCycles
		c.setReg(in.Rd, uint64(int64(c.reg(in.Rs1))*in.Imm))
	case OpShlImm:
		c.setReg(in.Rd, c.reg(in.Rs1)<<uint64(in.Imm&63))

	case OpLd8:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 8, false)
		c.setReg(in.Rd, c.Mem.Read8(a))
	case OpLd4:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 4, false)
		c.setReg(in.Rd, uint64(c.Mem.Read4(a)))
	case OpLd2:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 2, false)
		c.setReg(in.Rd, uint64(c.Mem.Read2(a)))
	case OpLd1:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 1, false)
		c.setReg(in.Rd, uint64(c.Mem.Read1(a)))

	case OpSt8:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 8, true)
		c.Mem.Write8(a, c.reg(in.Rs2))
	case OpStRef:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 8, true)
		v := c.reg(in.Rs2)
		c.Mem.Write8(a, v)
		c.cycles += c.cfg.BarrierCycles
		if c.Barrier != nil {
			c.Barrier(a, v)
		}
	case OpSt4:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 4, true)
		c.Mem.Write4(a, uint32(c.reg(in.Rs2)))
	case OpSt2:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 2, true)
		c.Mem.Write2(a, uint16(c.reg(in.Rs2)))
	case OpSt1:
		a := c.base(in.Rs1) + uint64(in.Imm)
		c.cycles += c.Hier.Access(a, 1, true)
		c.Mem.Write1(a, uint8(c.reg(in.Rs2)))

	case OpEnter:
		c.SP -= 8
		c.cycles += c.Hier.Access(c.SP, 8, true)
		c.Mem.Write8(c.SP, c.FP)
		c.FP = c.SP
		c.SP -= uint64(in.Imm)

	case OpLeave:
		c.SP = c.FP
		c.cycles += c.Hier.Access(c.SP, 8, false)
		c.FP = c.Mem.Read8(c.SP)
		c.SP += 8

	case OpCallM:
		c.cycles += c.cfg.CallCycles
		// Load the target from the method entry table.
		slot := c.cfg.MethodTableBase + uint64(in.Imm)*8
		c.cycles += c.Hier.Access(slot, 8, false)
		target := c.Mem.Read8(slot)
		if target == 0 {
			c.fault(fmt.Sprintf("call to unresolved method %d", in.Imm))
		}
		c.pushRet(next)
		c.PC = target
		return !c.halted

	case OpCallV:
		c.cycles += c.cfg.CallCycles
		recv := c.reg(in.Rs1)
		if recv == 0 {
			c.trap(TrapNullPtr)
			return !c.halted
		}
		// Load the class ID from the object header, then the vtable
		// pointer, then the method entry — all real, cached loads.
		c.cycles += c.Hier.Access(recv, 4, false)
		classID := uint64(c.Mem.Read4(recv))
		vtSlot := c.cfg.VTableMapBase + classID*8
		c.cycles += c.Hier.Access(vtSlot, 8, false)
		vt := c.Mem.Read8(vtSlot)
		if vt == 0 {
			c.fault(fmt.Sprintf("virtual call on class %d without vtable", classID))
		}
		entry := vt + uint64(in.Imm)*8
		c.cycles += c.Hier.Access(entry, 8, false)
		target := c.Mem.Read8(entry)
		if target == 0 {
			c.fault(fmt.Sprintf("virtual slot %d of class %d unresolved", in.Imm, classID))
		}
		c.pushRet(next)
		c.PC = target
		return !c.halted

	case OpRet:
		c.cycles += c.cfg.CallCycles
		c.cycles += c.Hier.Access(c.SP, 8, false)
		target := c.Mem.Read8(c.SP)
		c.SP += 8
		if target == 0 {
			// Return from the entry frame: the program is done.
			c.Halt(0)
			return false
		}
		c.PC = target
		return !c.halted

	case OpJmp:
		c.cycles += c.cfg.TakenBranchCycles
		c.PC = uint64(in.Imm)
		return !c.halted

	case OpBrEQ, OpBrNE, OpBrLT, OpBrLE, OpBrGT, OpBrGE, OpBrULT, OpBrUGE:
		a, b := c.reg(in.Rs1), c.reg(in.Rs2)
		var taken bool
		switch in.Op {
		case OpBrEQ:
			taken = a == b
		case OpBrNE:
			taken = a != b
		case OpBrLT:
			taken = int64(a) < int64(b)
		case OpBrLE:
			taken = int64(a) <= int64(b)
		case OpBrGT:
			taken = int64(a) > int64(b)
		case OpBrGE:
			taken = int64(a) >= int64(b)
		case OpBrULT:
			taken = a < b
		case OpBrUGE:
			taken = a >= b
		}
		if taken {
			c.cycles += c.cfg.TakenBranchCycles
			c.PC = uint64(in.Imm)
			return !c.halted
		}

	case OpTrap:
		c.trap(in.Imm)
		if c.halted {
			return false
		}

	default:
		c.fault(fmt.Sprintf("unimplemented opcode %v", in.Op))
	}

	c.PC = next
	return !c.halted
}

func (c *CPU) pushRet(ret uint64) {
	c.SP -= 8
	c.cycles += c.Hier.Access(c.SP, 8, true)
	c.Mem.Write8(c.SP, ret)
}

func (c *CPU) trap(num int64) {
	if c.handler == nil {
		c.fault(fmt.Sprintf("trap %d with no handler", num))
	}
	c.handler.Trap(c, num)
}
