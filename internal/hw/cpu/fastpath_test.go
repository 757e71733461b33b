package cpu

import (
	"slices"
	"testing"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/mem"
)

// haltTrap halts the CPU from inside the trap handler, the way TrapExit
// does in the real VM.
type haltTrap struct{}

func (haltTrap) Trap(c *CPU, num int64) { c.Halt(num) }

// TestRunHaltInsideTrap is a regression test for the Run overshoot bug:
// when a trap handler halted the CPU, the old loop structure could
// report more retired instructions than actually executed. The budget
// countdown makes the return value exact by construction.
func TestRunHaltInsideTrap(t *testing.T) {
	c := newCPU()
	c.SetTrapHandler(haltTrap{})
	addr := c.InstallCode([]Instr{
		{Op: OpMovImm, Rd: 1, Imm: 7},
		{Op: OpTrap, Imm: 42}, // handler halts; nothing after runs
		{Op: OpMovImm, Rd: 2, Imm: 99},
		{Op: OpRet},
	})
	c.SP = 0x0200_0000 - 8
	c.Mem.Write8(c.SP, 0)
	c.PC = addr
	n := c.Run(1000)
	if n != 2 {
		t.Errorf("Run reported %d retired instructions, want 2 (MovImm + Trap)", n)
	}
	if !c.Halted() || c.ExitStatus() != 42 {
		t.Errorf("halted=%v status=%d, want halted with status 42", c.Halted(), c.ExitStatus())
	}
	if c.Regs[2] == 99 {
		t.Error("instruction after halting trap executed")
	}
}

// TestRunInstretWrap is a regression test for the companion bug: Run's
// return value was derived from the instret delta, which went wrong
// when the retired-instruction counter wrapped around mid-call.
func TestRunInstretWrap(t *testing.T) {
	c := newCPU()
	c.instret = ^uint64(0) - 2 // wraps after 3 instructions
	addr := c.InstallCode([]Instr{
		{Op: OpMovImm, Rd: 1, Imm: 1},
		{Op: OpMovImm, Rd: 2, Imm: 2},
		{Op: OpMovImm, Rd: 3, Imm: 3},
		{Op: OpMovImm, Rd: 4, Imm: 4},
		{Op: OpMovImm, Rd: 5, Imm: 5},
		{Op: OpRet},
	})
	c.SP = 0x0200_0000 - 8
	c.Mem.Write8(c.SP, 0)
	c.PC = addr
	n := c.Run(1000)
	if n != 6 {
		t.Errorf("Run across instret wrap reported %d, want 6", n)
	}
	if c.instret != 3 {
		t.Errorf("instret after wrap = %d, want 3", c.instret)
	}
}

// TestRunBudgetExact checks that Run retires exactly maxInstr
// instructions when the program is longer than the budget, and that a
// subsequent Run resumes where the first left off.
func TestRunBudgetExact(t *testing.T) {
	c := newCPU()
	prog := make([]Instr, 0, 65)
	for i := 0; i < 64; i++ {
		prog = append(prog, Instr{Op: OpAddImm, Rd: 1, Rs1: 1, Imm: 1})
	}
	prog = append(prog, Instr{Op: OpRet})
	addr := c.InstallCode(prog)
	c.SP = 0x0200_0000 - 8
	c.Mem.Write8(c.SP, 0)
	c.PC = addr
	if n := c.Run(10); n != 10 {
		t.Fatalf("first Run = %d, want 10", n)
	}
	if c.Halted() {
		t.Fatal("halted with budget exhausted mid-program")
	}
	if c.Regs[1] != 10 {
		t.Fatalf("r1 = %d after 10 increments", c.Regs[1])
	}
	if n := c.Run(1000); n != 55 {
		t.Fatalf("resumed Run = %d, want 55 (54 increments + Ret)", n)
	}
	if c.Regs[1] != 64 || !c.Halted() {
		t.Errorf("r1 = %d halted=%v, want 64 and halted", c.Regs[1], c.Halted())
	}
}

// requireSameState fails the test unless the two CPUs agree on PC,
// cycles, instret, the register file, SP and FP, the hierarchy
// snapshot and the memory snapshot.
func requireSameState(t *testing.T, what string, ref, fast *CPU) {
	t.Helper()
	if ref.PC != fast.PC || ref.cycles != fast.cycles || ref.instret != fast.instret {
		t.Errorf("%s: pc/cycles/instret diverge: ref %#x/%d/%d fast %#x/%d/%d",
			what, ref.PC, ref.cycles, ref.instret, fast.PC, fast.cycles, fast.instret)
	}
	if ref.Regs != fast.Regs || ref.SP != fast.SP || ref.FP != fast.FP {
		t.Errorf("%s: register state diverges:\nref  %v sp=%#x fp=%#x\nfast %v sp=%#x fp=%#x",
			what, ref.Regs, ref.SP, ref.FP, fast.Regs, fast.SP, fast.FP)
	}
	if string(ref.Hier.Snapshot().Data) != string(fast.Hier.Snapshot().Data) {
		t.Errorf("%s: cache hierarchy state diverges between Step and Run", what)
	}
	if string(ref.Mem.Snapshot().Data) != string(fast.Mem.Snapshot().Data) {
		t.Errorf("%s: memory diverges between Step and Run", what)
	}
}

// TestRunLoopStepEquivalence drives the same program through the
// single-step interpreter and through the fast run loop and requires
// identical architectural state, cycle counts, memory and hierarchy
// state at the end. The program runs every memory opcode of the run
// loop: loads and stores of every width, a reference store through a
// barrier that charges cycles, Enter/Leave/Ret around a method call,
// and loads from pages no store has touched yet. This is the in-package
// half of the equivalence argument; the cross-layer half is the golden
// corpus test at the repo root.
func TestRunLoopStepEquivalence(t *testing.T) {
	type barrierCall struct{ slot, value uint64 }
	build := func(log *[]barrierCall) *CPU {
		c := New(mem.New(), cache.New(cache.DefaultP4()), DefaultConfig())
		c.SetTrapHandler(haltTrap{})
		c.Barrier = func(slot, value uint64) {
			*log = append(*log, barrierCall{slot, value})
			c.AddCycles(1 + slot>>13&3)
		}
		method := c.InstallCode([]Instr{
			{Op: OpEnter, Imm: 32},
			{Op: OpSt8, Rs1: BaseFP, Imm: -8, Rs2: 1},
			{Op: OpLd8, Rd: 4, Rs1: BaseFP, Imm: -8},
			{Op: OpMovImm, Rd: 5, Imm: 0x0102030405060708},
			{Op: OpMul, Rd: 5, Rs1: 1, Rs2: 5},
			{Op: OpSt8, Rs1: 3, Imm: 8, Rs2: 5},
			{Op: OpSt2, Rs1: 3, Imm: 12, Rs2: 5},
			{Op: OpSt1, Rs1: 3, Imm: 15, Rs2: 5},
			{Op: OpSt1, Rs1: 3, Imm: 17, Rs2: 5},
			{Op: OpLd4, Rd: 6, Rs1: 3, Imm: 8},
			{Op: OpLd2, Rd: 7, Rs1: 3, Imm: 12},
			{Op: OpLd2, Rd: 8, Rs1: 3, Imm: 14},
			{Op: OpLd1, Rd: 10, Rs1: 3, Imm: 15},
			{Op: OpLd1, Rd: 11, Rs1: 3, Imm: 17},
			{Op: OpStRef, Rs1: 3, Imm: 24, Rs2: 9},
			{Op: OpLd8, Rd: 12, Rs1: 3, Imm: 24},
			{Op: OpLd8, Rd: 13, Rs1: 3, Imm: mem.PageSize}, // a page nothing has stored to yet
			{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 4},
			{Op: OpXor, Rd: 2, Rs1: 2, Rs2: 6},
			{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 7},
			{Op: OpXor, Rd: 2, Rs1: 2, Rs2: 8},
			{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 10},
			{Op: OpXor, Rd: 2, Rs1: 2, Rs2: 11},
			{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 12},
			{Op: OpXor, Rd: 2, Rs1: 2, Rs2: 13},
			{Op: OpLeave},
			{Op: OpRet},
		})
		c.Mem.Write8(c.Config().MethodTableBase, method)
		base := c.NextCodeAddr()
		loop := base + 4*InstrBytes
		c.InstallCode([]Instr{
			{Op: OpMovImm, Rd: 1, Imm: 40},          // counter
			{Op: OpMovImm, Rd: 2, Imm: 0},           // sum
			{Op: OpMovImm, Rd: 3, Imm: 0x0100_0000}, // buffer, 8 KB per iteration
			{Op: OpMovImm, Rd: 9, Imm: 0x123450},    // stored reference
			{Op: OpCallM, Imm: 0},                   // loop:
			{Op: OpSt8, Rs1: 3, Imm: 0, Rs2: 2},
			{Op: OpLd8, Rd: 14, Rs1: 3, Imm: 0},
			{Op: OpAddImm, Rd: 3, Rs1: 3, Imm: 0x2000},
			{Op: OpAddImm, Rd: 9, Rs1: 9, Imm: 8},
			{Op: OpAddImm, Rd: 1, Rs1: 1, Imm: -1},
			{Op: OpBrNE, Rs1: 1, Rs2: RegZero, Imm: int64(loop)},
			{Op: OpShlImm, Rd: 7, Rs1: 2, Imm: 3},
			{Op: OpTrap, Imm: 5}, // halts via handler
		})
		c.SP = 0x0200_0000 - 8
		c.Mem.Write8(c.SP, 0)
		c.FP = 0
		c.PC = base
		return c
	}

	var refLog, fastLog []barrierCall
	ref := build(&refLog)
	fast := build(&fastLog)
	steps := 0
	for ref.Step() {
		steps++
		if steps > 1_000_000 {
			t.Fatal("reference interpreter did not halt")
		}
	}
	if n := fast.Run(2_000_000); n != uint64(steps)+1 {
		// Step() returns false on the halting instruction, so the
		// retired count is steps+1.
		t.Errorf("fast path retired %d instructions, reference %d", n, steps+1)
	}
	requireSameState(t, "program", ref, fast)
	if ref.ExitStatus() != fast.ExitStatus() {
		t.Errorf("exit status: ref %d fast %d", ref.ExitStatus(), fast.ExitStatus())
	}
	if len(refLog) != 40 || !slices.Equal(refLog, fastLog) {
		t.Errorf("barrier calls: ref %d, fast %d, want 40 equal ones", len(refLog), len(fastLog))
	}
}

// TestRunLoopStepFaultsAgree runs every memory opcode of the run loop
// at a null address, an unaligned one and DirectoryEnd, through Step
// and through Run. Both must fault with the same panic value and leave
// the same state behind: the access has been charged, the instruction
// has not completed.
func TestRunLoopStepFaultsAgree(t *testing.T) {
	const unaligned = 0x0100_0000 + 1
	ops := []struct {
		op    Op
		width uint64
	}{
		{OpLd8, 8}, {OpLd4, 4}, {OpLd2, 2}, {OpLd1, 1},
		{OpSt8, 8}, {OpStRef, 8}, {OpSt2, 2}, {OpSt1, 1},
		{OpEnter, 8}, {OpLeave, 8}, {OpRet, 8},
	}
	for _, w := range ops {
		for _, at := range []struct {
			name string
			addr uint64
		}{{"null", 0}, {"unaligned", unaligned}, {"DirectoryEnd", mem.DirectoryEnd}} {
			if at.name == "unaligned" && w.width == 1 {
				continue // every address is aligned for one byte
			}
			build := func() *CPU {
				c := newCPU()
				c.Barrier = func(uint64, uint64) { t.Errorf("%v at %s reached the barrier", w.op, at.name) }
				c.SP = 0x0200_0000 - 8
				c.FP = 0x0200_0000 - 64
				switch w.op {
				case OpEnter: // pushes FP at SP-8
					c.SP = at.addr + 8
				case OpLeave: // pops FP from FP
					c.FP = at.addr
				case OpRet: // pops the return address from SP
					c.SP = at.addr
				}
				c.PC = c.InstallCode([]Instr{
					{Op: OpMovImm, Rd: 1, Imm: int64(at.addr)},
					{Op: OpMovImm, Rd: 2, Imm: 0x55},
					{Op: w.op, Rd: 3, Rs1: 1, Rs2: 2},
					{Op: OpTrap, Imm: 1},
				})
				c.SetTrapHandler(haltTrap{})
				return c
			}
			fault := func(run func()) (v any) {
				defer func() { v = recover() }()
				run()
				return nil
			}
			ref, fast := build(), build()
			refFault := fault(func() {
				for ref.Step() {
				}
			})
			fastFault := fault(func() { fast.Run(100) })
			what := w.op.String() + " at " + at.name
			if refFault == nil || refFault != fastFault {
				t.Errorf("%s: Step recovered %v, Run recovered %v, want the same fault", what, refFault, fastFault)
			}
			requireSameState(t, what, ref, fast)
		}
	}
}

// installTrap is a recompiling trap handler: it installs a new body for
// method 0 and retargets the method's entry, the way the adaptive
// system installs an optimized version. Only the first body traps, so
// it runs once.
type installTrap struct{ body []Instr }

func (h installTrap) Trap(c *CPU, num int64) {
	addr := c.InstallCode(h.body)
	c.Mem.Write8(c.Config().MethodTableBase, addr)
}

// TestRunLoopSeesCodeInstalledByTrap checks that the run loop executes
// code a trap handler installed during the same Run: the loop must pick
// up the grown code after the delegated Step, or the first call into
// the new body faults as beyond the installed code.
func TestRunLoopSeesCodeInstalledByTrap(t *testing.T) {
	build := func() *CPU {
		c := newCPU()
		c.SetTrapHandler(installTrap{body: []Instr{
			{Op: OpEnter, Imm: 16},
			{Op: OpLd8, Rd: 4, Rs1: 3, Imm: 8},
			{Op: OpAdd, Rd: 4, Rs1: 4, Rs2: 1},
			{Op: OpSt8, Rs1: 3, Imm: 8, Rs2: 4},
			{Op: OpShlImm, Rd: 5, Rs1: 4, Imm: 67}, // shifts by 67&63
			{Op: OpSt8, Rs1: BaseFP, Imm: -8, Rs2: 5},
			{Op: OpLd8, Rd: 6, Rs1: BaseSP, Imm: 8},
			{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 6},
			{Op: OpLeave},
			{Op: OpRet},
		}})
		first := c.InstallCode([]Instr{ // method 0 before the trap
			{Op: OpTrap, Imm: 9},
			{Op: OpLd8, Rd: 4, Rs1: 3, Imm: 0},
			{Op: OpAddImm, Rd: 4, Rs1: 4, Imm: 1},
			{Op: OpSt8, Rs1: 3, Imm: 0, Rs2: 4},
			{Op: OpRet},
		})
		c.Mem.Write8(c.Config().MethodTableBase, first)
		base := c.NextCodeAddr()
		loop := base + 2*InstrBytes
		c.InstallCode([]Instr{
			{Op: OpMovImm, Rd: 1, Imm: 50},
			{Op: OpMovImm, Rd: 3, Imm: 0x8000},
			{Op: OpCallM, Imm: 0}, // loop:
			{Op: OpAddImm, Rd: 1, Rs1: 1, Imm: -1},
			{Op: OpBrNE, Rs1: 1, Rs2: RegZero, Imm: int64(loop)},
			{Op: OpRet},
		})
		c.SP = 0x0200_0000 - 8
		c.Mem.Write8(c.SP, 0)
		c.PC = base
		return c
	}

	ref := build()
	for steps := 0; ref.Step(); steps++ {
		if steps > 1_000_000 {
			t.Fatal("reference interpreter did not halt")
		}
	}
	fast := build()
	fast.Run(2_000_000)
	if !ref.Halted() || !fast.Halted() {
		t.Fatalf("halted: ref %v fast %v", ref.Halted(), fast.Halted())
	}
	if ref.Regs[2] == 0 {
		t.Fatal("the installed body never ran")
	}
	requireSameState(t, "program", ref, fast)
}
