package cpu

// Fast-path interpreter: a horizon-bounded inner loop over the
// installed code that executes the common opcodes without
// per-instruction Step overhead while remaining cycle- and
// state-identical to Step (DESIGN.md §11, pinned by
// TestGoldenEquivalence and TestRunLoopStepEquivalence).
//
// Identity argument, in brief:
//
//   - PC, cycles and instret live in locals, but every call-out that
//     can observe or mutate CPU state — Hierarchy.Access (whose event
//     listeners run PEBS capture: SamplePC/SampleRegs/AddCycles), the
//     write barrier (AddCycles), and the trap handler — sees them
//     flushed first, and cycles/instret are reloaded afterwards. This
//     reproduces Step's `c.cycles += c.Hier.Access(...)` semantics,
//     where the Go evaluation order reads c.cycles after the call.
//   - Every load and store first tries Hierarchy.Hit, the inlined
//     resident-line lane. A lane hit is an L1 hit with a DTLB hit: no
//     listener fires on one and nothing else runs, so nothing can
//     observe the CPU during it, and the loop adds L1HitCycles to its
//     local cycle count without a flush. Only when Hit declines does
//     the access flush and call Access.
//   - Every load and store does its data operation after the access,
//     through the memory's inlinable lane (mem.Memory.Load8, Store8,
//     …). Only when the lane declines — first touch of a page, or a
//     fault — does it call Read*/Write*, with PC, cycles and instret
//     flushed first, so a fault leaves the counters exactly as Step's
//     does (TestRunLoopStepFaultsAgree).
//   - The register file and SP/FP stay struct-resident, so samples
//     taken mid-access read exactly what Step's would.
//   - Rare or intricate opcodes (calls, divides, traps, unknown)
//     delegate to Step itself with state flushed, so the two
//     interpreters cannot drift on them.
//   - The cycle horizon and instruction budget are checked before
//     every instruction, so ticker scheduling, pause points and
//     Run(maxInstr) accounting are bit-identical to a Step loop.
//   - The halt flag and a pending Yield share one byte (CPU.stop), so
//     the loop tests both with the load the halt test alone would
//     take.

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

// runLoop is the shared tight interpreter loop. It retires whole
// instructions while cycles < cycleHorizon and the instruction budget
// lasts, and no halt or Yield ends it, and returns the number of
// instructions retired. Its callers clear a pending Yield first: the
// request was made before the caller's own deadline scan, which has
// answered it. A Yield from within the loop ends it through the test
// that ends it on a halt.
func (c *CPU) runLoop(cycleHorizon, budget uint64) uint64 {
	code := c.code
	cbase := c.cfg.CodeBase
	clen := uint64(len(code))
	mulCycles := c.cfg.MulCycles
	takenBranch := c.cfg.TakenBranchCycles
	callCycles := c.cfg.CallCycles
	barrierCycles := c.cfg.BarrierCycles
	l1Hit := c.Hier.Config().L1HitCycles

	// Hot state in locals; flushed at every call-out and at loop exit.
	pc := c.PC
	cyc := c.cycles
	ins := c.instret
	startBudget := budget
	ifetchOn := c.ifetch != nil

run:
	for c.stop == 0 && cyc < cycleHorizon && budget != 0 {
		if pc < cbase {
			c.PC, c.cycles, c.instret = pc, cyc, ins
			c.fault("PC outside code space")
		}
		idx := (pc - cbase) / InstrBytes
		if idx >= clen {
			c.PC, c.cycles, c.instret = pc, cyc, ins
			c.fault("PC beyond installed code")
		}
		in := &code[idx]
		if ifetchOn {
			if line := pc >> c.ifetchShift; line != c.lastFetchLine {
				// Same flush-reload discipline as a data access: the
				// fetch can miss, fire the listener, and run PEBS
				// capture, all of which must see live counters.
				c.lastFetchLine = line
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.ifetch(pc)
				cyc = c.cycles + cost
			}
		}
		budget--
		cyc++
		ins++

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
			cyc += mulCycles
			c.setReg(in.Rd, uint64(int64(c.reg(in.Rs1))*int64(c.reg(in.Rs2))))
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
		case OpShlImm:
			c.setReg(in.Rd, c.reg(in.Rs1)<<uint64(in.Imm&63))

		case OpLd8:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, false) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 8, false)
				cyc = c.cycles + cost
			}
			v, ok := c.Mem.Load8(a)
			if !ok {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				v = c.Mem.Read8(a)
			}
			c.setReg(in.Rd, v)
		case OpLd4:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, false) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 4, false)
				cyc = c.cycles + cost
			}
			v, ok := c.Mem.Load4(a)
			if !ok {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				v = c.Mem.Read4(a)
			}
			c.setReg(in.Rd, uint64(v))
		case OpLd2:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, false) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 2, false)
				cyc = c.cycles + cost
			}
			v, ok := c.Mem.Load2(a)
			if !ok {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				v = c.Mem.Read2(a)
			}
			c.setReg(in.Rd, uint64(v))
		case OpLd1:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, false) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 1, false)
				cyc = c.cycles + cost
			}
			v, ok := c.Mem.Load1(a)
			if !ok {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				v = c.Mem.Read1(a)
			}
			c.setReg(in.Rd, uint64(v))

		case OpSt8:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, true) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 8, true)
				cyc = c.cycles + cost
			}
			if v := c.reg(in.Rs2); !c.Mem.Store8(a, v) {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				c.Mem.Write8(a, v)
			}
		case OpStRef:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, true) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 8, true)
				cyc = c.cycles + cost
			}
			v := c.reg(in.Rs2)
			if !c.Mem.Store8(a, v) {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				c.Mem.Write8(a, v)
			}
			cyc += barrierCycles
			if c.Barrier != nil {
				// The barrier charges AddCycles for remembered-set
				// records; it must see (and we must keep) the live
				// counter.
				c.PC, c.cycles, c.instret = pc, cyc, ins
				c.Barrier(a, v)
				cyc = c.cycles
			}
		case OpSt2:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, true) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 2, true)
				cyc = c.cycles + cost
			}
			if v := uint16(c.reg(in.Rs2)); !c.Mem.Store2(a, v) {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				c.Mem.Write2(a, v)
			}
		case OpSt1:
			a := c.base(in.Rs1) + uint64(in.Imm)
			if c.Hier.Hit(a, true) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(a, 1, true)
				cyc = c.cycles + cost
			}
			if v := uint8(c.reg(in.Rs2)); !c.Mem.Store1(a, v) {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				c.Mem.Write1(a, v)
			}

		case OpEnter:
			c.SP -= 8
			if c.Hier.Hit(c.SP, true) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(c.SP, 8, true)
				cyc = c.cycles + cost
			}
			if !c.Mem.Store8(c.SP, c.FP) {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				c.Mem.Write8(c.SP, c.FP)
			}
			c.FP = c.SP
			c.SP -= uint64(in.Imm)
		case OpLeave:
			c.SP = c.FP
			if c.Hier.Hit(c.SP, false) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(c.SP, 8, false)
				cyc = c.cycles + cost
			}
			fp, ok := c.Mem.Load8(c.SP)
			if !ok {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				fp = c.Mem.Read8(c.SP)
			}
			c.FP = fp
			c.SP += 8

		case OpRet:
			cyc += callCycles
			if c.Hier.Hit(c.SP, false) {
				cyc += l1Hit
			} else {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				cost := c.Hier.Access(c.SP, 8, false)
				cyc = c.cycles + cost
			}
			target, ok := c.Mem.Load8(c.SP)
			if !ok {
				c.PC, c.cycles, c.instret = pc, cyc, ins
				target = c.Mem.Read8(c.SP)
			}
			c.SP += 8
			if target == 0 {
				// Return from the entry frame: the program is done.
				// PC stays at the Ret, exactly like Step.
				c.Halt(0)
				break run
			}
			pc = target
			continue

		case OpJmp:
			cyc += takenBranch
			pc = uint64(in.Imm)
			continue

		case OpBrEQ:
			if c.reg(in.Rs1) == c.reg(in.Rs2) {
				cyc += takenBranch
				pc = uint64(in.Imm)
				continue
			}
		case OpBrNE:
			if c.reg(in.Rs1) != c.reg(in.Rs2) {
				cyc += takenBranch
				pc = uint64(in.Imm)
				continue
			}
		case OpBrLT:
			if int64(c.reg(in.Rs1)) < int64(c.reg(in.Rs2)) {
				cyc += takenBranch
				pc = uint64(in.Imm)
				continue
			}
		case OpBrLE:
			if int64(c.reg(in.Rs1)) <= int64(c.reg(in.Rs2)) {
				cyc += takenBranch
				pc = uint64(in.Imm)
				continue
			}
		case OpBrGT:
			if int64(c.reg(in.Rs1)) > int64(c.reg(in.Rs2)) {
				cyc += takenBranch
				pc = uint64(in.Imm)
				continue
			}
		case OpBrGE:
			if int64(c.reg(in.Rs1)) >= int64(c.reg(in.Rs2)) {
				cyc += takenBranch
				pc = uint64(in.Imm)
				continue
			}
		case OpBrUGE:
			if c.reg(in.Rs1) >= c.reg(in.Rs2) {
				cyc += takenBranch
				pc = uint64(in.Imm)
				continue
			}

		default:
			// Calls, divides, traps, and unimplemented opcodes: undo
			// the pre-charge (Step charges its own) and delegate, so
			// the rare cases share one implementation with Step.
			cyc--
			ins--
			c.PC, c.cycles, c.instret = pc, cyc, ins
			c.Step()
			cyc, ins = c.cycles, c.instret
			pc = c.PC
			// A trap handler may have installed code (recompilation).
			code = c.code
			clen = uint64(len(code))
			continue
		}

		pc += InstrBytes
	}

	c.PC, c.cycles, c.instret = pc, cyc, ins
	return startBudget - budget
}
