package cpu

import (
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

// TestRunLoopStepEquivalence drives the same program through the
// single-step interpreter and through the fast run loop and requires
// identical architectural state, cycle counts and hierarchy stats at
// every step boundary. This is the in-package half of the equivalence
// argument; the cross-layer half is the golden corpus test at the repo
// root.
func TestRunLoopStepEquivalence(t *testing.T) {
	build := func() *CPU {
		c := New(mem.New(), cache.New(cache.DefaultP4()), DefaultConfig())
		c.SetTrapHandler(haltTrap{})
		base := c.NextCodeAddr()
		loop := base + 4*InstrBytes
		c.InstallCode([]Instr{
			{Op: OpMovImm, Rd: 1, Imm: 200},    // counter
			{Op: OpMovImm, Rd: 2, Imm: 0},      // sum
			{Op: OpMovImm, Rd: 3, Imm: 0x8000}, // buffer base
			{Op: OpSt8, Rs1: 3, Imm: 0, Rs2: 1},
			{Op: OpLd8, Rd: 4, Rs1: 3, Imm: 0}, // loop:
			{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 4},
			{Op: OpAddImm, Rd: 5, Rs1: 3, Imm: 8}, // address of the next word
			{Op: OpLd8, Rd: 6, Rs1: 5, Imm: 0},
			{Op: OpSt8, Rs1: 3, Imm: 8, Rs2: 2},
			{Op: OpAddImm, Rd: 1, Rs1: 1, Imm: -1},
			{Op: OpSt8, Rs1: 3, Imm: 0, Rs2: 1},
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

	ref := build()
	fast := build()
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
	if ref.PC != fast.PC || ref.cycles != fast.cycles || ref.instret != fast.instret {
		t.Errorf("pc/cycles/instret diverge: ref %#x/%d/%d fast %#x/%d/%d",
			ref.PC, ref.cycles, ref.instret, fast.PC, fast.cycles, fast.instret)
	}
	if ref.Regs != fast.Regs || ref.SP != fast.SP || ref.FP != fast.FP {
		t.Errorf("register state diverges:\nref  %v sp=%#x fp=%#x\nfast %v sp=%#x fp=%#x",
			ref.Regs, ref.SP, ref.FP, fast.Regs, fast.SP, fast.FP)
	}
	rs, fs := ref.Hier.Snapshot(), fast.Hier.Snapshot()
	if string(rs.Data) != string(fs.Data) {
		t.Error("cache hierarchy state diverges between Step and fast path")
	}
	if ref.ExitStatus() != fast.ExitStatus() {
		t.Errorf("exit status: ref %d fast %d", ref.ExitStatus(), fast.ExitStatus())
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
	if ref.PC != fast.PC || ref.cycles != fast.cycles || ref.instret != fast.instret {
		t.Errorf("pc/cycles/instret diverge: ref %#x/%d/%d fast %#x/%d/%d",
			ref.PC, ref.cycles, ref.instret, fast.PC, fast.cycles, fast.instret)
	}
	if ref.Regs != fast.Regs || ref.SP != fast.SP || ref.FP != fast.FP {
		t.Errorf("register state diverges:\nref  %v sp=%#x fp=%#x\nfast %v sp=%#x fp=%#x",
			ref.Regs, ref.SP, ref.FP, fast.Regs, fast.SP, fast.FP)
	}
	if string(ref.Hier.Snapshot().Data) != string(fast.Hier.Snapshot().Data) {
		t.Error("cache hierarchy state diverges between Step and Run")
	}
}
