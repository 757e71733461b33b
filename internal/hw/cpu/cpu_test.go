package cpu

import (
	"strings"
	"testing"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/mem"
)

// newCPU builds a CPU with a fresh memory and the default P4 hierarchy.
func newCPU() *CPU {
	return New(mem.New(), cache.New(cache.DefaultP4()), DefaultConfig())
}

// run installs the program, points PC at it with a sentinel return
// address, and executes until halt or budget exhaustion.
func run(t *testing.T, c *CPU, prog []Instr) {
	t.Helper()
	addr := c.InstallCode(prog)
	c.SP = 0x0200_0000 - 8
	c.Mem.Write8(c.SP, 0) // sentinel: Ret from top frame halts
	c.FP = 0
	c.PC = addr
	if n := c.Run(1_000_000); n == 1_000_000 {
		t.Fatal("program did not halt")
	}
}

type exitRecorder struct{ status int64 }

func (e *exitRecorder) Trap(c *CPU, num int64) {
	switch num {
	case TrapExit:
		c.Halt(int64(c.Regs[1]))
	default:
		e.status = num
		c.Halt(99)
	}
}

func TestArithmeticOps(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpAdd, 7, 5, 12},
		{OpSub, 7, 5, 2},
		{OpMul, -3, 5, -15},
		{OpDiv, -17, 5, -3}, // truncating division
		{OpRem, -17, 5, -2},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 3, 4, 48},
		{OpShr, -1, 60, 15},
		{OpSar, -16, 2, -4},
	}
	for _, tc := range cases {
		c := newCPU()
		c.SetTrapHandler(&exitRecorder{})
		run(t, c, []Instr{
			{Op: OpMovImm, Rd: 1, Imm: tc.a},
			{Op: OpMovImm, Rd: 2, Imm: tc.b},
			{Op: tc.op, Rd: 3, Rs1: 1, Rs2: 2},
			{Op: OpRet},
		})
		if got := int64(c.Regs[3]); got != tc.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestImmediateOps(t *testing.T) {
	c := newCPU()
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 10},
		{Op: OpAddImm, Rd: 2, Rs1: 1, Imm: -3},
		{Op: OpMovImm, Rd: 3, Imm: 7},
		{Op: OpMul, Rd: 3, Rs1: 1, Rs2: 3},
		{Op: OpShlImm, Rd: 4, Rs1: 1, Imm: 3},
		{Op: OpMov, Rd: 5, Rs1: 4},
		{Op: OpRet},
	})
	if c.Regs[2] != 7 || c.Regs[3] != 70 || c.Regs[4] != 80 || c.Regs[5] != 80 {
		t.Errorf("regs = %v", c.Regs[:6])
	}
}

func TestZeroRegister(t *testing.T) {
	c := newCPU()
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: RegZero, Imm: 123}, // write ignored
		{Op: OpAddImm, Rd: 1, Rs1: RegZero, Imm: 5},
		{Op: OpRet},
	})
	if c.Regs[1] != 5 {
		t.Errorf("zr-relative add = %d", c.Regs[1])
	}
}

// TestInstallCodeRejectsFields checks that InstallCode faults, at the
// offending instruction and installing none of the batch, on every
// register field form the register file cannot serve as its opcode
// means: a GPR-only field naming SP (16), FP (17) or anything higher,
// and a memory base above FP. SP, FP and the zero register as a base,
// and fields an opcode does not read, install.
func TestInstallCodeRejectsFields(t *testing.T) {
	var bad []Instr
	for _, r := range []uint8{BaseSP, BaseFP, BaseFP + 1, 255} {
		bad = append(bad,
			Instr{Op: OpMovImm, Rd: r},
			Instr{Op: OpMov, Rd: 1, Rs1: r},
			Instr{Op: OpAdd, Rd: r, Rs1: 1, Rs2: 2},
			Instr{Op: OpSub, Rd: 1, Rs1: r, Rs2: 2},
			Instr{Op: OpDiv, Rd: 1, Rs1: 2, Rs2: r},
			Instr{Op: OpAddImm, Rd: 1, Rs1: r},
			Instr{Op: OpShlImm, Rd: r, Rs1: 1},
			Instr{Op: OpLd8, Rd: r, Rs1: 1},
			Instr{Op: OpSt8, Rs1: 1, Rs2: r},
			Instr{Op: OpStRef, Rs1: BaseFP, Rs2: r},
			Instr{Op: OpCallV, Rs1: r},
			Instr{Op: OpBrEQ, Rs1: r, Rs2: 1},
			Instr{Op: OpBrUGE, Rs1: 1, Rs2: r},
		)
	}
	for _, r := range []uint8{BaseFP + 1, 255} {
		bad = append(bad,
			Instr{Op: OpLd1, Rd: 1, Rs1: r},
			Instr{Op: OpSt2, Rs1: r, Rs2: 1},
			Instr{Op: OpStRef, Rs1: r, Rs2: 1},
		)
	}
	for _, in := range bad {
		c := newCPU()
		first := c.InstallCode([]Instr{{Op: OpNop}})
		f, ok := faultOf(func() { c.InstallCode([]Instr{{Op: OpNop}, in}) }).(*Fault)
		if want := first + 2*InstrBytes; !ok || f.PC != want {
			t.Errorf("installing %v: fault %v, want one at %#x", in, f, want)
		}
		if next := c.NextCodeAddr(); next != first+InstrBytes {
			t.Errorf("installing %v installed %d instructions", in, (next-first)/InstrBytes-1)
		}
	}
	c := newCPU()
	c.InstallCode([]Instr{
		{Op: OpLd8, Rd: 1, Rs1: BaseSP},
		{Op: OpSt1, Rs1: BaseFP, Rs2: RegZero},
		{Op: OpLd4, Rd: RegZero, Rs1: RegZero},
		{Op: OpMovImm, Rd: 1, Rs1: 255, Rs2: 255},
		{Op: OpEnter, Rd: 255, Rs1: 255, Rs2: 255, Imm: 16},
		{Op: OpCallM, Rd: 255, Rs1: 255, Rs2: 255},
		{Op: OpTrap, Rd: 255, Rs1: 255, Rs2: 255},
	})
}

func TestLoadsAndStores(t *testing.T) {
	c := newCPU()
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 0x5000},
		{Op: OpMovImm, Rd: 2, Imm: -2}, // 0xFFFF_FFFF_FFFF_FFFE
		{Op: OpSt8, Rs1: 1, Imm: 0, Rs2: 2},
		{Op: OpLd8, Rd: 3, Rs1: 1, Imm: 0},
		{Op: OpLd4, Rd: 4, Rs1: 1, Imm: 0}, // zero-extended low word
		{Op: OpLd2, Rd: 5, Rs1: 1, Imm: 0},
		{Op: OpLd1, Rd: 6, Rs1: 1, Imm: 0},
		{Op: OpSt2, Rs1: 1, Imm: 16, Rs2: 2},
		{Op: OpLd2, Rd: 7, Rs1: 1, Imm: 16},
		{Op: OpRet},
	})
	if int64(c.Regs[3]) != -2 {
		t.Errorf("Ld8 = %d", int64(c.Regs[3]))
	}
	if c.Regs[4] != 0xFFFFFFFE || c.Regs[5] != 0xFFFE || c.Regs[6] != 0xFE {
		t.Errorf("zero extension wrong: %x %x %x", c.Regs[4], c.Regs[5], c.Regs[6])
	}
	if c.Regs[7] != 0xFFFE {
		t.Errorf("St2/Ld2 = %x", c.Regs[7])
	}
}

func TestBranches(t *testing.T) {
	// Loop: sum 1..5 via BrLT.
	c := newCPU()
	base := c.NextCodeAddr()
	loop := base + 2*InstrBytes
	end := base + 5*InstrBytes
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 0},         // i
		{Op: OpMovImm, Rd: 2, Imm: 0},         // sum
		{Op: OpAddImm, Rd: 1, Rs1: 1, Imm: 1}, // loop: i++
		{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 1},    // sum += i
		{Op: OpBrLT, Rs1: 1, Rs2: 3, Imm: int64(loop)},
		{Op: OpRet}, // end
	})
	_ = end
	// r3 is 0, so BrLT(i, 0) never taken: sum = 1.
	if c.Regs[2] != 1 {
		t.Errorf("sum = %d", c.Regs[2])
	}

	// Unsigned compare: -1 is huge unsigned.
	c2 := newCPU()
	b2 := c2.NextCodeAddr()
	skip := b2 + 4*InstrBytes
	run(t, c2, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: -1},
		{Op: OpMovImm, Rd: 2, Imm: 5},
		{Op: OpBrUGE, Rs1: 1, Rs2: 2, Imm: int64(skip)},
		{Op: OpMovImm, Rd: 3, Imm: 111}, // skipped
		{Op: OpRet},
	})
	if c2.Regs[3] == 111 {
		t.Error("BrUGE with -1 not taken (unsigned semantics broken)")
	}
}

func TestCallRetAndFrames(t *testing.T) {
	c := newCPU()
	c.SetTrapHandler(&exitRecorder{})
	// Callee: r0 = r0 * 2, via the method entry table (method id 7).
	calleeAddr := c.InstallCode([]Instr{
		{Op: OpEnter, Imm: 16},
		{Op: OpSt8, Rs1: BaseFP, Imm: -8, Rs2: 0},
		{Op: OpLd8, Rd: 1, Rs1: BaseFP, Imm: -8},
		{Op: OpAdd, Rd: 0, Rs1: 1, Rs2: 1},
		{Op: OpLeave},
		{Op: OpRet},
	})
	c.Mem.Write8(c.Config().MethodTableBase+7*8, calleeAddr)
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 21},
		{Op: OpCallM, Imm: 7},
		{Op: OpRet},
	})
	if c.Regs[0] != 42 {
		t.Errorf("call result = %d", c.Regs[0])
	}
	// The final Ret pops the sentinel, leaving SP at the stack top.
	if c.SP != 0x0200_0000 {
		t.Errorf("SP not restored: %#x", c.SP)
	}
}

func TestVirtualDispatch(t *testing.T) {
	c := newCPU()
	// Class 5's vtable, slot 2 -> target method.
	target := c.InstallCode([]Instr{
		{Op: OpMovImm, Rd: 0, Imm: 1234},
		{Op: OpRet},
	})
	cfg := c.Config()
	vtbl := uint64(0x0400_0000)
	c.Mem.Write8(cfg.VTableMapBase+5*8, vtbl)
	c.Mem.Write8(vtbl+2*8, target)
	// Receiver object with class ID 5 in its header.
	obj := uint64(0x1000_0000)
	c.Mem.Write4(obj, 5)
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: int64(obj)},
		{Op: OpCallV, Rs1: 1, Imm: 2},
		{Op: OpRet},
	})
	if c.Regs[0] != 1234 {
		t.Errorf("virtual dispatch result = %d", c.Regs[0])
	}
}

func TestCallVNullReceiverTraps(t *testing.T) {
	c := newCPU()
	rec := &exitRecorder{}
	c.SetTrapHandler(rec)
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 0},
		{Op: OpCallV, Rs1: 1, Imm: 0},
		{Op: OpRet},
	})
	if rec.status != TrapNullPtr {
		t.Errorf("trap = %d, want TrapNullPtr", rec.status)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	for _, op := range []Op{OpDiv, OpRem} {
		c := newCPU()
		rec := &exitRecorder{}
		c.SetTrapHandler(rec)
		run(t, c, []Instr{
			{Op: OpMovImm, Rd: 1, Imm: 10},
			{Op: op, Rd: 2, Rs1: 1, Rs2: RegZero},
			{Op: OpRet},
		})
		if rec.status != TrapDivZero {
			t.Errorf("%v by zero: trap = %d", op, rec.status)
		}
	}
}

func TestStRefBarrier(t *testing.T) {
	c := newCPU()
	var gotSlot, gotVal uint64
	c.Barrier = func(slot, val uint64) { gotSlot, gotVal = slot, val }
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 0x6000},
		{Op: OpMovImm, Rd: 2, Imm: 0x7000},
		{Op: OpStRef, Rs1: 1, Imm: 8, Rs2: 2},
		{Op: OpRet},
	})
	if gotSlot != 0x6008 || gotVal != 0x7000 {
		t.Errorf("barrier saw (%#x,%#x)", gotSlot, gotVal)
	}
	if c.Mem.Read8(0x6008) != 0x7000 {
		t.Error("StRef did not store")
	}
}

func TestTrapExit(t *testing.T) {
	c := newCPU()
	c.SetTrapHandler(&exitRecorder{})
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 17},
		{Op: OpTrap, Imm: TrapExit},
	})
	if c.ExitStatus() != 17 {
		t.Errorf("exit status = %d", c.ExitStatus())
	}
}

func TestCyclesAccumulate(t *testing.T) {
	c := newCPU()
	run(t, c, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 1},
		{Op: OpMul, Rd: 1, Rs1: 1, Rs2: 1},
		{Op: OpRet},
	})
	// 3 instructions + mul extra + ret costs + memory for the ret pop.
	if c.Cycles() < 4 || c.Instret() != 3 {
		t.Errorf("cycles=%d instret=%d", c.Cycles(), c.Instret())
	}
}

func TestWildPCFaults(t *testing.T) {
	c := newCPU()
	c.PC = 0x10 // below code base
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected fault")
		} else if _, ok := r.(*Fault); !ok {
			t.Errorf("panic value %T, want *Fault", r)
		}
	}()
	c.Step()
}

func TestUserMode(t *testing.T) {
	c := newCPU()
	if !c.UserMode() {
		t.Error("fresh CPU not in user mode")
	}
	c.SetUserMode(false)
	if c.UserMode() {
		t.Error("SetUserMode(false) ignored")
	}
}

func TestDisassembly(t *testing.T) {
	in := Instr{Op: OpLd8, Rd: 3, Rs1: BaseFP, Imm: -16}
	if got := in.String(); !strings.Contains(got, "fp") || !strings.Contains(got, "r3") {
		t.Errorf("disasm = %q", got)
	}
}

func TestInstrAt(t *testing.T) {
	c := newCPU()
	addr := c.InstallCode([]Instr{{Op: OpNop}, {Op: OpRet}})
	if in, ok := c.InstrAt(addr + InstrBytes); !ok || in.Op != OpRet {
		t.Error("InstrAt wrong")
	}
	if _, ok := c.InstrAt(addr + 2*InstrBytes); ok {
		t.Error("InstrAt beyond code should fail")
	}
	if _, ok := c.InstrAt(addr + 1); ok {
		t.Error("InstrAt misaligned should fail")
	}
}
