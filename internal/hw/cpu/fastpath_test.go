package cpu

import (
	"fmt"
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
			{Op: OpLd8, Rd: RegZero, Rs1: 3, Imm: 0}, // dropped; zr still reads 0 below
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
	if ref.Regs[RegZero] != 0 || fast.Regs[RegZero] != 0 {
		t.Errorf("zero register: ref %#x fast %#x, want 0", ref.Regs[RegZero], fast.Regs[RegZero])
	}
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

// chargingTrap is a trap handler that does what the VM's services do:
// it charges cycles and loads and stores through the timed accessors.
// It resumes a divide by zero at the next instruction.
type chargingTrap struct{}

func (chargingTrap) Trap(c *CPU, num int64) {
	if num == TrapDivZero {
		c.PC += InstrBytes
	}
	c.AddCycles(uint64(num))
	v := c.LoadWord(0x0100_0000)
	c.StoreWord(0x0100_0040, v+uint64(num))
	c.StoreHalf(0x0100_0048, c.LoadHalf(0x0100_0040))
}

// exitProgram is a program that takes every way out of the fast loop,
// and the code addresses of the instructions it must stop at.
type exitProgram struct {
	c     *CPU
	stops map[string]uint64 // why the fast loop stops -> where
}

// buildExitProgram builds the program on a fresh CPU. ifetch turns on
// the I-cache model and swSite installs a software-prefetch site at a
// load of a line the lane holds. fault, when not "", ends the loop's
// last iteration with an access at a null or an unaligned address.
func buildExitProgram(ifetch, swSite bool, fault string) exitProgram {
	c := New(mem.New(), cache.New(cache.DefaultP4()), DefaultConfig())
	c.SetTrapHandler(chargingTrap{})
	c.Barrier = func(slot, value uint64) { c.AddCycles(1 + slot>>3&3) }
	if ifetch {
		c.Hier.EnableICache(1024, 2)
		c.SetIFetch(c.Hier.IFetch, c.Hier.Config().LineSize)
	}
	stops := map[string]uint64{}
	var code []Instr
	base := c.NextCodeAddr()
	emit := func(why string, in ...Instr) uint64 {
		pc := base + uint64(len(code))*InstrBytes
		if why != "" {
			stops[why] = pc
		}
		code = append(code, in...)
		return pc
	}
	const buf, obj, fresh = 0x0100_0000, 0x0180_0000, 0x0300_0000
	emit("", Instr{Op: OpJmp}) // to main, patched below

	// Method 0, called by CallM: a frame, a spill and its reload.
	m0 := emit("", Instr{Op: OpEnter, Imm: 16})
	emit("", Instr{Op: OpSt8, Rs1: BaseFP, Imm: -8, Rs2: 1},
		Instr{Op: OpLd8, Rd: 4, Rs1: BaseFP, Imm: -8},
		Instr{Op: OpLeave}, Instr{Op: OpRet})
	// Virtual slot 1 of class 3, called by CallV.
	m1 := emit("", Instr{Op: OpAddImm, Rd: 2, Rs1: 2, Imm: 1}, Instr{Op: OpRet})

	main := emit("", Instr{Op: OpMovImm, Rd: 1, Imm: 2}, // iterations
		Instr{Op: OpMovImm, Rd: 3, Imm: buf},
		Instr{Op: OpMovImm, Rd: 5, Imm: obj},
		Instr{Op: OpMovImm, Rd: 9, Imm: 0x1230},
		Instr{Op: OpMovImm, Rd: 10, Imm: fresh - mem.PageSize})
	code[0].Imm = int64(main)
	// The loop's first instruction is one the fast loop retires, so the
	// fetch of its line, a backward branch away, is the fast loop's to
	// leave for.
	loop := emit("", Instr{Op: OpAddImm, Rd: 9, Rs1: 9, Imm: 8})
	emit("CallM", Instr{Op: OpCallM, Imm: 0})
	emit("CallV", Instr{Op: OpCallV, Rs1: 5, Imm: 1})
	emit("", Instr{Op: OpSt8, Rs1: 3, Imm: 0, Rs2: 1})
	emit("site", Instr{Op: OpLd8, Rd: 6, Rs1: 3, Imm: 0})
	emit("StRef", Instr{Op: OpStRef, Rs1: 3, Imm: 8, Rs2: 9})
	emit("", Instr{Op: OpDiv, Rd: 7, Rs1: 6, Rs2: 1},
		Instr{Op: OpRem, Rd: 8, Rs1: 9, Rs2: 1})
	emit("divide by zero", Instr{Op: OpRem, Rd: 8, Rs1: 9, Rs2: RegZero})
	emit("Trap", Instr{Op: OpTrap, Imm: 7})
	emit("", Instr{Op: OpSt2, Rs1: 3, Imm: 18, Rs2: 9},
		Instr{Op: OpSt1, Rs1: 3, Imm: 21, Rs2: 9},
		Instr{Op: OpLd4, Rd: 11, Rs1: 3, Imm: 16},
		Instr{Op: OpLd2, Rd: 12, Rs1: 3, Imm: 18},
		Instr{Op: OpLd1, Rd: 13, Rs1: 3, Imm: 21},
		Instr{Op: OpMul, Rd: 11, Rs1: 11, Rs2: 12},
		Instr{Op: OpAddImm, Rd: 10, Rs1: 10, Imm: mem.PageSize},
		Instr{Op: OpBrLT, Rs1: 1, Rs2: RegZero, Imm: int64(base)}) // not taken
	next := base + uint64(len(code)+1)*InstrBytes
	emit("", Instr{Op: OpBrUGE, Rs1: 1, Rs2: 1, Imm: int64(next)}) // taken
	emit("page", Instr{Op: OpLd8, Rd: 14, Rs1: 10, Imm: 0})
	emit("decline", Instr{Op: OpLd8, Rd: 14, Rs1: 3, Imm: 256})
	emit("", Instr{Op: OpAddImm, Rd: 3, Rs1: 3, Imm: 512},
		Instr{Op: OpAddImm, Rd: 1, Rs1: 1, Imm: -1})
	switch fault {
	case "null":
		emit("", Instr{Op: OpBrNE, Rs1: 1, Rs2: RegZero, Imm: int64(loop)},
			Instr{Op: OpMovImm, Rd: 3, Imm: 0})
		emit("fault", Instr{Op: OpLd8, Rd: 4, Rs1: 3})
	case "unaligned":
		// The stack's line, which the lane holds by now.
		emit("", Instr{Op: OpBrNE, Rs1: 1, Rs2: RegZero, Imm: int64(loop)})
		emit("fault", Instr{Op: OpSt8, Rs1: BaseSP, Imm: 4, Rs2: 1})
	}
	// Straight-line code to the last instruction of a fetch line and on
	// into the next line, whose branch returns to that instruction, one
	// the fast loop retires, once more.
	emit("", Instr{Op: OpMovImm, Rd: 0, Imm: 2})
	perLine := uint64(c.Hier.Config().LineSize) / InstrBytes
	for (base/InstrBytes+uint64(len(code)))%perLine != perLine-1 {
		emit("", Instr{Op: OpXor, Rd: 2, Rs1: 2, Rs2: 1})
	}
	back := emit("", Instr{Op: OpXor, Rd: 2, Rs1: 2, Rs2: 0})
	emit("", Instr{Op: OpAddImm, Rd: 0, Rs1: 0, Imm: -1},
		Instr{Op: OpBrNE, Rs1: 0, Rs2: RegZero, Imm: int64(back)})
	// Then the return to 0.
	emit("", Instr{Op: OpBrNE, Rs1: 1, Rs2: RegZero, Imm: int64(loop)})
	emit("Ret to 0", Instr{Op: OpRet})
	c.InstallCode(code)

	c.Mem.Write8(c.Config().MethodTableBase, m0)
	c.Mem.Write4(obj, 3)
	c.Mem.Write8(c.Config().VTableMapBase+3*8, obj+64)
	c.Mem.Write8(obj+64+8, m1)
	c.Mem.Write8(buf, 1) // materializes the buffer's page
	if swSite {
		c.Hier.EnableSwPrefetch(c, 2)
		c.Hier.SetSwPrefetchSites(map[uint64]int64{stops["site"]: 384})
	} else {
		delete(stops, "site")
	}
	if fault != "" {
		delete(stops, "Ret to 0")
	}
	c.SP = 0x0200_0000 - 8
	c.Mem.Write8(c.SP, 0)
	c.PC = base
	return exitProgram{c: c, stops: stops}
}

// faultOf runs f and returns what it panicked with, or nil.
func faultOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// stepRef is a Step-only reference run, stepped forward as the checks
// ask for it: after a number of Step calls, or until the cycles reach
// a horizon, in increasing order. It stands where a fresh CPU stepped
// that far would stand, since a halt or a fault ends it as it would end
// the fresh run.
type stepRef struct {
	c     *CPU
	calls int
	done  bool
	fault any
	hier  string // c.Hier's snapshot in the current state, "" until asked
}

func (s *stepRef) step() {
	s.calls++
	s.hier = ""
	if s.fault = faultOf(func() { s.done = !s.c.Step() }); s.fault != nil {
		s.done = true
	}
}

// stepTo steps until n Step calls have been made.
func (s *stepRef) stepTo(n int) {
	for !s.done && s.calls < n {
		s.step()
	}
}

// runTo steps until the cycles reach h.
func (s *stepRef) runTo(h uint64) {
	for !s.done && s.c.cycles < h {
		s.step()
	}
}

func (s *stepRef) hierSnapshot() string {
	if s.hier == "" {
		s.hier = string(s.c.Hier.Snapshot().Data)
	}
	return s.hier
}

// TestFastLoopExits runs a program that takes every way out of the
// fast loop — a lane decline, an unmaterialized page, StRef's barrier,
// CallM and CallV, a divide by zero, a trap, a fetch-line change, a
// software-prefetch site, Ret to 0, a null and an unaligned access —
// and holds runLoop to a Step-only run at every instruction budget and
// at the cycle horizons at and after every instruction's end: PC,
// cycles, instret, registers and the hierarchy snapshot must agree
// (memory too, after the whole program), and a faulting run must fault
// the same way.
func TestFastLoopExits(t *testing.T) {
	for _, tc := range []struct {
		name           string
		ifetch, swSite bool
		fault          string
	}{
		{"plain", false, false, ""},
		{"ifetch", true, false, ""},
		{"swprefetch", false, true, ""},
		{"null", false, false, "null"},
		{"unaligned", true, true, "unaligned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *CPU { return buildExitProgram(tc.ifetch, tc.swSite, tc.fault).c }

			// The reference: Step alone, the cycles after every instruction.
			whole := &stepRef{c: build()}
			var cycles []uint64
			for !whole.done {
				whole.step()
				if whole.fault == nil {
					cycles = append(cycles, whole.c.cycles)
				}
			}
			if (whole.fault != nil) != (tc.fault != "") {
				t.Fatalf("reference run recovered %v", whole.fault)
			}
			steps := len(cycles)

			// Where the fast loop stops, run as runLoop runs it.
			prog := buildExitProgram(tc.ifetch, tc.swSite, tc.fault)
			stopped := map[uint64]bool{}
			fast, lines := uint64(0), 0
			faultOf(func() {
				for c := prog.c; !c.Halted(); c.Step() {
					fast += c.fastLoop(^uint64(0), ^uint64(0))
					stopped[c.PC] = true
					if c.ifetch != nil && c.PC>>c.ifetchShift != c.lastFetchLine {
						lines++
					}
				}
			})
			for why, pc := range prog.stops {
				if !stopped[pc] {
					t.Errorf("the fast loop never stopped at the %s at %#x", why, pc)
				}
			}
			if tc.ifetch && lines == 0 {
				t.Error("the fast loop never stopped at a fetch-line change")
			}
			if fast < uint64(steps)/2 {
				t.Errorf("the fast loop retired %d of %d instructions", fast, steps)
			}

			// Each check runs a fresh CPU and compares it with the
			// reference at the same point. Memory is compared once,
			// after the whole program: its snapshots would cost this
			// test most of its time.
			check := func(what string, run func(c *CPU), ref *stepRef) {
				t.Helper()
				c, r := build(), ref.c
				if fault := faultOf(func() { run(c) }); fault != ref.fault {
					t.Fatalf("%s: runLoop recovered %v, Step %v", what, fault, ref.fault)
				}
				if r.PC != c.PC || r.cycles != c.cycles || r.instret != c.instret ||
					r.Regs != c.Regs || r.SP != c.SP || r.FP != c.FP {
					t.Fatalf("%s: runLoop pc/cycles/instret %#x/%d/%d sp/fp %#x/%#x regs %v,\nStep %#x/%d/%d sp/fp %#x/%#x regs %v",
						what, c.PC, c.cycles, c.instret, c.SP, c.FP, c.Regs, r.PC, r.cycles, r.instret, r.SP, r.FP, r.Regs)
				}
				if ref.hierSnapshot() != string(c.Hier.Snapshot().Data) {
					t.Fatalf("%s: cache hierarchy state diverges between Step and runLoop", what)
				}
				if ref == whole {
					requireSameState(t, what, r, c)
				}
			}
			check("the whole program", func(c *CPU) { c.Run(^uint64(0)) }, whole)
			// Every budget, from a fresh start: the instruction budget's
			// edge falls after every instruction once.
			ref := &stepRef{c: build()}
			for k := 1; k <= steps+1; k++ {
				ref.stepTo(k)
				check(fmt.Sprintf("Run(%d)", k), func(c *CPU) { c.Run(uint64(k)) }, ref)
			}
			// The cycle horizon's edge at and just after the end of every
			// instruction.
			ref = &stepRef{c: build()}
			for _, end := range cycles {
				for _, h := range []uint64{end, end + 1} {
					ref.runTo(h)
					check(fmt.Sprintf("RunCycles(%d)", h), func(c *CPU) { c.RunCycles(h) }, ref)
				}
			}
		})
	}
}
