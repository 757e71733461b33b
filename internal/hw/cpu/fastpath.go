package cpu

// The run loop: a call-free fast loop retires the common instructions,
// and Step executes every other one (DESIGN.md §2, pinned by
// TestGoldenEquivalence, TestRunLoopStepEquivalence and
// TestFastLoopExits).
//
// Identity argument, in brief:
//
//   - The fast loop makes no call at all: its lanes (Hierarchy.HitAt,
//     Memory.Page and the Page accessors) inline, and `make vet` fails
//     when its listing holds a CALL other than a runtime panic or stack
//     growth, or a block zero or copy (DUFFZERO, DUFFCOPY, calls into
//     the runtime). So no listener, barrier, trap handler or I-fetch hook can
//     run while PC, cycles and instret sit in its locals, and nothing
//     can observe the CPU inside it.
//   - It retires an instruction only when it can do all of it: ALU ops
//     (a divide by a nonzero divisor), jumps and branches, and the
//     loads, stores, Enter, Leave and Ret
//     whose access the lane serves (an L1 hit with a DTLB hit, which
//     raises no event and costs HitCycles) on a page the memory already
//     holds, which cannot fault. Before any other instruction it
//     stops, having changed nothing for it: every test that can send
//     an instruction to Step comes before the instruction's first
//     effect, and the lane itself changes nothing when it declines.
//   - Both loops read and write the one register file (CPU.file) the
//     same way: InstallCode admits only fields that index it as their
//     opcode means, and both end an instruction by zeroing RegZero.
//   - Step executes the instruction the fast loop stopped at, so every
//     miss, fault, barrier, call, trap, halt and fetch-line change runs
//     through the one reference implementation.
//   - The cycle horizon and instruction budget are checked before
//     every instruction in both, so ticker scheduling, pause points and
//     Run(maxInstr) accounting are bit-identical to a Step loop.
//   - The halt flag and a pending Yield share one byte (CPU.stop), set
//     only by calls, so runLoop tests it after each Step.

// RunCycles executes instructions until the cycle counter reaches
// horizon, the CPU halts, or a fault aborts the run. It is the
// event-horizon entry point for the VM's run loop: the caller computes
// the next cycle at which anything non-local can fire (ticker
// deadlines, pause points, cancel safepoints) and lets the CPU run
// unchecked until then. Equivalent to `for c.Cycles() < horizon {
// c.Step() }` with the per-instruction overhead hoisted out.
func (c *CPU) RunCycles(horizon uint64) {
	c.stop &^= stopYield
	c.runLoop(horizon, ^uint64(0))
}

// Run executes up to maxInstr instructions, stopping early if the CPU
// halts. It returns the number of instructions retired, clamped to
// maxInstr: the budget is counted down per retired instruction, so the
// accounting neither overshoots when a trap handler halts mid-
// instruction nor breaks when instret wraps around 2^64.
func (c *CPU) Run(maxInstr uint64) uint64 {
	c.stop &^= stopYield
	return c.runLoop(^uint64(0), maxInstr)
}

// runLoop retires whole instructions while cycles < cycleHorizon and
// the instruction budget lasts, and no halt or Yield ends it, and
// returns the number of instructions retired. Its callers clear a
// pending Yield first: the request was made before the caller's own
// deadline scan, which has answered it. A Yield from within Step ends
// the loop through the test that ends it on a halt.
func (c *CPU) runLoop(cycleHorizon, budget uint64) uint64 {
	start := budget
	for c.stop == 0 && c.cycles < cycleHorizon && budget != 0 {
		budget -= c.fastLoop(cycleHorizon, budget)
		if c.cycles < cycleHorizon && budget != 0 {
			if census {
				c.countExit()
			}
			c.Step()
			budget--
		}
	}
	if census {
		c.tally().retired += start - budget
	}
	return start - budget
}

// fastLoop retires instructions while cycles < cycleHorizon and fewer
// than budget have retired, and stops earlier at the first instruction
// it cannot retire without a call, with PC at that instruction and
// nothing of it done. It returns the number of instructions retired.
func (c *CPU) fastLoop(cycleHorizon, budget uint64) uint64 {
	r := c.file()
	hitCycles := c.Hier.HitCycles()
	// The loop runs the instructions of one window, from lo: the
	// installed code or, with the fetch hook, its part on the current
	// fetch line. One compare of pc-lo against the window is the code
	// range test, the fetch-line test and code's bounds check.
	lo, code := c.cfg.CodeBase, c.code
	if c.ifetch != nil {
		lo, code = c.fetchWindow()
	}

	pc, cyc := c.PC, c.cycles
	left := budget
run:
	for cyc < cycleHorizon && left != 0 {
		// Below lo pc-lo wraps to beyond the window.
		idx := (pc - lo) / InstrBytes
		if idx >= uint64(len(code)) {
			break // Step faults or charges the fetch
		}
		in := &code[idx]
		next := pc + InstrBytes

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
			cyc += mulCycles
			r[in.Rd] = uint64(int64(r[in.Rs1]) * int64(r[in.Rs2]))
		case OpDiv:
			d := int64(r[in.Rs2])
			if d == 0 {
				break run // Step traps
			}
			cyc += divCycles
			r[in.Rd] = uint64(int64(r[in.Rs1]) / d)
		case OpRem:
			d := int64(r[in.Rs2])
			if d == 0 {
				break run // Step traps
			}
			cyc += divCycles
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
			a := r[in.Rs1] + uint64(in.Imm)
			p := c.Mem.Page(a, 8)
			if p == nil || !c.Hier.HitAt(pc, a, false) {
				break run
			}
			cyc += hitCycles
			r[in.Rd] = p.Load8(a)
		case OpLd4:
			a := r[in.Rs1] + uint64(in.Imm)
			p := c.Mem.Page(a, 4)
			if p == nil || !c.Hier.HitAt(pc, a, false) {
				break run
			}
			cyc += hitCycles
			r[in.Rd] = uint64(p.Load4(a))
		case OpLd2:
			a := r[in.Rs1] + uint64(in.Imm)
			p := c.Mem.Page(a, 2)
			if p == nil || !c.Hier.HitAt(pc, a, false) {
				break run
			}
			cyc += hitCycles
			r[in.Rd] = uint64(p.Load2(a))
		case OpLd1:
			a := r[in.Rs1] + uint64(in.Imm)
			p := c.Mem.Page(a, 1)
			if p == nil || !c.Hier.HitAt(pc, a, false) {
				break run
			}
			cyc += hitCycles
			r[in.Rd] = uint64(p.Load1(a))

		case OpSt8:
			a := r[in.Rs1] + uint64(in.Imm)
			p := c.Mem.Page(a, 8)
			if p == nil || !c.Hier.HitAt(pc, a, true) {
				break run
			}
			cyc += hitCycles
			p.Store8(a, r[in.Rs2])
		case OpSt2:
			a := r[in.Rs1] + uint64(in.Imm)
			p := c.Mem.Page(a, 2)
			if p == nil || !c.Hier.HitAt(pc, a, true) {
				break run
			}
			cyc += hitCycles
			p.Store2(a, uint16(r[in.Rs2]))
		case OpSt1:
			a := r[in.Rs1] + uint64(in.Imm)
			p := c.Mem.Page(a, 1)
			if p == nil || !c.Hier.HitAt(pc, a, true) {
				break run
			}
			cyc += hitCycles
			p.Store1(a, uint8(r[in.Rs2]))

		case OpEnter:
			a := c.SP - 8
			p := c.Mem.Page(a, 8)
			if p == nil || !c.Hier.HitAt(pc, a, true) {
				break run
			}
			cyc += hitCycles
			p.Store8(a, c.FP)
			c.FP = a
			c.SP = a - uint64(in.Imm)
		case OpLeave:
			a := c.FP
			p := c.Mem.Page(a, 8)
			if p == nil || !c.Hier.HitAt(pc, a, false) {
				break run
			}
			cyc += hitCycles
			c.FP = p.Load8(a)
			c.SP = a + 8

		case OpRet:
			a := c.SP
			p := c.Mem.Page(a, 8)
			if p == nil {
				break run
			}
			// A return to 0 leaves the entry frame: Step halts.
			target := p.Load8(a)
			if target == 0 || !c.Hier.HitAt(pc, a, false) {
				break run
			}
			cyc += callCycles + hitCycles
			c.SP = a + 8
			next = target

		case OpJmp:
			cyc += takenBranchCycles
			next = uint64(in.Imm)

		case OpBrEQ:
			if r[in.Rs1] == r[in.Rs2] {
				cyc += takenBranchCycles
				next = uint64(in.Imm)
			}
		case OpBrNE:
			if r[in.Rs1] != r[in.Rs2] {
				cyc += takenBranchCycles
				next = uint64(in.Imm)
			}
		case OpBrLT:
			if int64(r[in.Rs1]) < int64(r[in.Rs2]) {
				cyc += takenBranchCycles
				next = uint64(in.Imm)
			}
		case OpBrLE:
			if int64(r[in.Rs1]) <= int64(r[in.Rs2]) {
				cyc += takenBranchCycles
				next = uint64(in.Imm)
			}
		case OpBrGT:
			if int64(r[in.Rs1]) > int64(r[in.Rs2]) {
				cyc += takenBranchCycles
				next = uint64(in.Imm)
			}
		case OpBrGE:
			if int64(r[in.Rs1]) >= int64(r[in.Rs2]) {
				cyc += takenBranchCycles
				next = uint64(in.Imm)
			}
		case OpBrUGE:
			if r[in.Rs1] >= r[in.Rs2] {
				cyc += takenBranchCycles
				next = uint64(in.Imm)
			}

		default:
			// StRef (the barrier), calls, traps and unimplemented
			// opcodes.
			break run
		}
		cyc++
		left--
		pc = next
		r[RegZero] = 0 // a write to the zero register is dropped
	}
	retired := budget - left
	c.PC, c.cycles = pc, cyc
	c.instret += retired
	return retired
}

// fetchWindow returns the installed code on the current fetch line and
// the address of its first instruction. SetIFetch keeps fetch lines
// whole instructions long on instruction boundaries, so the window
// holds exactly the instructions whose PC is on the line. Before the
// first fetch the line is ^0, and the window is empty.
func (c *CPU) fetchWindow() (uint64, []Instr) {
	cbase, n := c.cfg.CodeBase, uint64(len(c.code))
	start := c.lastFetchLine << c.ifetchShift
	end := start + 1<<c.ifetchShift
	i := min((max(start, cbase)-cbase)/InstrBytes, n)
	j := max(min((max(end, cbase)-cbase)/InstrBytes, n), i)
	return cbase + i*InstrBytes, c.code[i:j]
}
