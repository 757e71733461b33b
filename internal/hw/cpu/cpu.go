package cpu

import (
	"fmt"
	"unsafe"

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

// Config holds the addresses of the code space and the runtime
// dispatch tables (set by the VM when it lays out its spaces).
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
}

// The cost model: extra cycles beyond the 1-cycle base per instruction.
const (
	mulCycles         = 3  // multiply
	divCycles         = 20 // divide/remainder
	takenBranchCycles = 1  // taken branch/jump
	callCycles        = 2  // call or return
	barrierCycles     = 2  // reference-store barrier check
)

// DefaultConfig returns the standard layout of the code space and the
// dispatch tables.
func DefaultConfig() Config {
	return Config{
		CodeBase:        0x0010_0000,
		MethodTableBase: 0x0008_0000,
		VTableMapBase:   0x000C_0000,
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

	// Regs, SP and FP are the register file: laid out back to back, so
	// that file views them as one array indexed by register encoding,
	// the GPRs, then SP at BaseSP and FP at BaseFP. InstallCode admits
	// only register fields that index it as their opcode means, and
	// every instruction ends by zeroing Regs[RegZero], which drops a
	// write to the zero register.
	Regs [NumRegs]uint64
	SP   uint64
	FP   uint64

	PC uint64

	cfg     Config
	code    []Instr
	handler TrapHandler

	// Barrier, when set, observes every reference store (slot address
	// and stored value) — the generational collectors' remembered-set
	// hook. The check itself costs barrierCycles.
	Barrier func(slotAddr, value uint64)

	// ifetch, when non-nil, models instruction fetch (the opt-in
	// I-cache of the code-layout optimization): Step calls it once per
	// code-line transition with the new PC and adds the stall cycles
	// it returns. lastFetchLine tracks the line the front end last
	// fetched, so straight-line execution inside one line costs
	// nothing; the fast loop compares it inline and stops at a change
	// of line. Nil for every pre-framework configuration.
	ifetch        func(pc uint64) uint64
	ifetchShift   uint
	lastFetchLine uint64

	cycles  uint64
	instret uint64
	// stop is runLoop's one exit flag test: stopHalted once the program
	// has halted, stopYield while a Yield request is pending.
	stop     uint8
	usermode bool

	// exitStatus is set by TrapExit via Halt.
	exitStatus int64

	// exits is the fast-loop exit census (census.go), nil unless built
	// with -tags census.
	exits *exitCensus
}

// numFile is the register file's length: the GPRs, SP and FP.
const numFile = BaseFP + 1

// The register file's layout: SP and FP follow the GPRs directly. A
// field moved between them fails to compile here.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(CPU{}.SP)-unsafe.Offsetof(CPU{}.Regs)-BaseSP*8]
	_ = [1]struct{}{}[unsafe.Offsetof(CPU{}.FP)-unsafe.Offsetof(CPU{}.Regs)-BaseFP*8]
)

// file returns the register file, Regs, SP and FP, as one array.
func (c *CPU) file() *[numFile]uint64 {
	return (*[numFile]uint64)(unsafe.Pointer(&c.Regs))
}

// New builds a CPU over the given memory and hierarchy.
func New(m *mem.Memory, h *cache.Hierarchy, cfg Config) *CPU {
	return &CPU{Mem: m, Hier: h, cfg: cfg, usermode: true}
}

// Config returns the CPU configuration.
func (c *CPU) Config() Config { return c.cfg }

// SetTrapHandler installs the VM's trap handler.
func (c *CPU) SetTrapHandler(h TrapHandler) { c.handler = h }

// stop bits.
const (
	stopHalted uint8 = 1 << iota
	stopYield
)

// Halted reports whether the CPU has stopped.
func (c *CPU) Halted() bool { return c.stop&stopHalted != 0 }

// Halt stops execution; status is the program exit status.
func (c *CPU) Halt(status int64) {
	c.stop |= stopHalted
	c.exitStatus = status
}

// Yield asks the run loop to return at the next instruction boundary,
// so the caller re-reads its deadlines before running on. A monitoring
// lane that charges a clock of its own, not this CPU, moves its poll
// deadline earlier in CPU time with every charge; asking to yield keeps
// the poll on time. The request lapses when the next run loop starts.
func (c *CPU) Yield() { c.stop |= stopYield }

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
// size; a power of two). A line must hold whole instructions: SetIFetch
// panics on a line shorter than InstrBytes or a code base off an
// instruction boundary.
func (c *CPU) SetIFetch(fn func(pc uint64) uint64, lineSize int) {
	if fn != nil && (lineSize < InstrBytes || c.cfg.CodeBase%InstrBytes != 0) {
		panic(fmt.Sprintf("cpu: fetch line of %d bytes at code base %#x splits instructions", lineSize, c.cfg.CodeBase))
	}
	c.ifetch = fn
	c.ifetchShift = 0
	for 1<<c.ifetchShift < lineSize {
		c.ifetchShift++
	}
	c.lastFetchLine = ^uint64(0)
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
// code in the immortal space, §4.2). It faults, installing nothing, on
// an instruction with a register field its opcode cannot name (see
// Instr.fieldsValid): the interpreter indexes the register file with
// the fields as they are.
func (c *CPU) InstallCode(instrs []Instr) uint64 {
	addr := c.NextCodeAddr()
	for i, in := range instrs {
		if !in.fieldsValid() {
			panic(&Fault{PC: addr + uint64(i)*InstrBytes, Reason: fmt.Sprintf("%v: register field out of range", in)})
		}
	}
	c.code = append(c.code, instrs...)
	return addr
}

// NextCodeAddr returns the address the next InstallCode call will
// return. Compilers use it to emit absolute branch targets before
// installation.
func (c *CPU) NextCodeAddr() uint64 {
	return c.cfg.CodeBase + uint64(len(c.code))*InstrBytes
}

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
// The runtime and the collectors load and store through these: they run
// on the same core and therefore share the same caches and cycle
// counter (GC traffic evicting application data is a real effect the
// paper's collectors contend with). Like the fast loop, they take the
// hierarchy's lane through access and the memory's page lane, and call
// Access and Read*/Write* only when a lane declines.

// LoadWord performs a timed 64-bit load.
func (c *CPU) LoadWord(addr uint64) uint64 {
	c.cycles += c.access(addr, 8, false)
	if p := c.Mem.Page(addr, 8); p != nil {
		return p.Load8(addr)
	}
	return c.Mem.Read8(addr)
}

// StoreWord performs a timed 64-bit store.
func (c *CPU) StoreWord(addr uint64, v uint64) {
	c.cycles += c.access(addr, 8, true)
	if p := c.Mem.Page(addr, 8); p != nil {
		p.Store8(addr, v)
		return
	}
	c.Mem.Write8(addr, v)
}

// LoadHalf performs a timed 32-bit load (zero-extended).
func (c *CPU) LoadHalf(addr uint64) uint32 {
	c.cycles += c.access(addr, 4, false)
	if p := c.Mem.Page(addr, 4); p != nil {
		return p.Load4(addr)
	}
	return c.Mem.Read4(addr)
}

// StoreHalf performs a timed 32-bit store.
func (c *CPU) StoreHalf(addr uint64, v uint32) {
	c.cycles += c.access(addr, 4, true)
	if p := c.Mem.Page(addr, 4); p != nil {
		p.Store4(addr, v)
		return
	}
	c.Mem.Write4(addr, v)
}

// load2, load1, store2 and store1 are the timed accessors of Step's
// narrow loads and stores.
func (c *CPU) load2(addr uint64) uint16 {
	c.cycles += c.access(addr, 2, false)
	if p := c.Mem.Page(addr, 2); p != nil {
		return p.Load2(addr)
	}
	return c.Mem.Read2(addr)
}

func (c *CPU) load1(addr uint64) uint8 {
	c.cycles += c.access(addr, 1, false)
	if p := c.Mem.Page(addr, 1); p != nil {
		return p.Load1(addr)
	}
	return c.Mem.Read1(addr)
}

func (c *CPU) store2(addr uint64, v uint16) {
	c.cycles += c.access(addr, 2, true)
	if p := c.Mem.Page(addr, 2); p != nil {
		p.Store2(addr, v)
		return
	}
	c.Mem.Write2(addr, v)
}

func (c *CPU) store1(addr uint64, v uint8) {
	c.cycles += c.access(addr, 1, true)
	if p := c.Mem.Page(addr, 1); p != nil {
		p.Store1(addr, v)
		return
	}
	c.Mem.Write1(addr, v)
}

// access charges one demand access made while the instruction at c.PC
// executes: the lane's hit when it serves, Access otherwise. The VM's
// own accesses (the timed accessors) pass the same PC: HitAt declines
// at every PC that may be a software-prefetch site, and only at such a
// PC, in user mode, can Access issue a prefetch, so the lane serves
// nothing Access would treat differently.
func (c *CPU) access(addr uint64, size int, write bool) uint64 {
	if c.Hier.HitAt(c.PC, addr, write) {
		return c.Hier.HitCycles()
	}
	return c.Hier.Access(addr, size, write)
}

// Step executes a single instruction. It returns false once the CPU is
// halted.
func (c *CPU) Step() bool {
	if c.Halted() {
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
	r := c.file()
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
		r[in.Rd] = uint64(in.Imm)
	case OpMov:
		r[in.Rd] = r[in.Rs1]

	case OpAdd:
		r[in.Rd] = r[in.Rs1] + r[in.Rs2]
	case OpSub:
		r[in.Rd] = r[in.Rs1] - r[in.Rs2]
	case OpMul:
		c.cycles += mulCycles
		r[in.Rd] = uint64(int64(r[in.Rs1]) * int64(r[in.Rs2]))
	case OpDiv:
		c.cycles += divCycles
		d := int64(r[in.Rs2])
		if d == 0 {
			c.trap(TrapDivZero)
			return !c.Halted()
		}
		r[in.Rd] = uint64(int64(r[in.Rs1]) / d)
	case OpRem:
		c.cycles += divCycles
		d := int64(r[in.Rs2])
		if d == 0 {
			c.trap(TrapDivZero)
			return !c.Halted()
		}
		r[in.Rd] = uint64(int64(r[in.Rs1]) % d)
	case OpAnd:
		r[in.Rd] = r[in.Rs1] & r[in.Rs2]
	case OpOr:
		r[in.Rd] = r[in.Rs1] | r[in.Rs2]
	case OpXor:
		r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
	case OpShl:
		r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
	case OpShr:
		r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
	case OpSar:
		r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))

	case OpAddImm:
		r[in.Rd] = r[in.Rs1] + uint64(in.Imm)
	case OpShlImm:
		r[in.Rd] = r[in.Rs1] << uint64(in.Imm&63)

	case OpLd8:
		r[in.Rd] = c.LoadWord(r[in.Rs1] + uint64(in.Imm))
	case OpLd4:
		r[in.Rd] = uint64(c.LoadHalf(r[in.Rs1] + uint64(in.Imm)))
	case OpLd2:
		r[in.Rd] = uint64(c.load2(r[in.Rs1] + uint64(in.Imm)))
	case OpLd1:
		r[in.Rd] = uint64(c.load1(r[in.Rs1] + uint64(in.Imm)))

	case OpSt8:
		c.StoreWord(r[in.Rs1]+uint64(in.Imm), r[in.Rs2])
	case OpStRef:
		a, v := r[in.Rs1]+uint64(in.Imm), r[in.Rs2]
		c.StoreWord(a, v)
		c.cycles += barrierCycles
		if c.Barrier != nil {
			c.Barrier(a, v)
		}
	case OpSt2:
		c.store2(r[in.Rs1]+uint64(in.Imm), uint16(r[in.Rs2]))
	case OpSt1:
		c.store1(r[in.Rs1]+uint64(in.Imm), uint8(r[in.Rs2]))

	case OpEnter:
		c.SP -= 8
		c.StoreWord(c.SP, c.FP)
		c.FP = c.SP
		c.SP -= uint64(in.Imm)

	case OpLeave:
		c.SP = c.FP
		c.FP = c.LoadWord(c.SP)
		c.SP += 8

	case OpCallM:
		c.cycles += callCycles
		// Load the target from the method entry table.
		target := c.LoadWord(c.cfg.MethodTableBase + uint64(in.Imm)*8)
		if target == 0 {
			c.fault(fmt.Sprintf("call to unresolved method %d", in.Imm))
		}
		c.pushRet(next)
		c.PC = target
		return !c.Halted()

	case OpCallV:
		c.cycles += callCycles
		recv := r[in.Rs1]
		if recv == 0 {
			c.trap(TrapNullPtr)
			return !c.Halted()
		}
		// Load the class ID from the object header, then the vtable
		// pointer, then the method entry — all real, cached loads.
		classID := uint64(c.LoadHalf(recv))
		vt := c.LoadWord(c.cfg.VTableMapBase + classID*8)
		if vt == 0 {
			c.fault(fmt.Sprintf("virtual call on class %d without vtable", classID))
		}
		target := c.LoadWord(vt + uint64(in.Imm)*8)
		if target == 0 {
			c.fault(fmt.Sprintf("virtual slot %d of class %d unresolved", in.Imm, classID))
		}
		c.pushRet(next)
		c.PC = target
		return !c.Halted()

	case OpRet:
		c.cycles += callCycles
		target := c.LoadWord(c.SP)
		c.SP += 8
		if target == 0 {
			// Return from the entry frame: the program is done.
			c.Halt(0)
			return false
		}
		c.PC = target
		return !c.Halted()

	case OpJmp:
		c.cycles += takenBranchCycles
		c.PC = uint64(in.Imm)
		return !c.Halted()

	case OpBrEQ, OpBrNE, OpBrLT, OpBrLE, OpBrGT, OpBrGE, OpBrUGE:
		a, b := r[in.Rs1], r[in.Rs2]
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
		case OpBrUGE:
			taken = a >= b
		}
		if taken {
			c.cycles += takenBranchCycles
			c.PC = uint64(in.Imm)
			return !c.Halted()
		}

	case OpTrap:
		c.trap(in.Imm)
		if c.Halted() {
			return false
		}

	default:
		c.fault(fmt.Sprintf("unimplemented opcode %v", in.Op))
	}

	r[RegZero] = 0 // a write to the zero register is dropped
	c.PC = next
	return !c.Halted()
}

func (c *CPU) pushRet(ret uint64) {
	c.SP -= 8
	c.StoreWord(c.SP, ret)
}

func (c *CPU) trap(num int64) {
	if c.handler == nil {
		c.fault(fmt.Sprintf("trap %d with no handler", num))
	}
	c.handler.Trap(c, num)
}
