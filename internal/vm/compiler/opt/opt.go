// Package opt implements the optimizing JIT compiler, the analogue of
// the Jikes RVM optimizing compiler (§3.2). It builds the high-level
// IR (package ir), runs the optimization pipeline, and generates
// register-allocated machine code with:
//
//   - a machine-code → bytecode index map for *every* instruction (the
//     paper's compiler extension, §4.2, originally only GC points had
//     maps in opt-compiled code);
//   - a machine-code → IR instruction map, so sampled events can be
//     charged to individual IR instructions;
//   - GC maps (live reference registers and frame slots) at every
//     allocation site and call site;
//   - the (S, f) access-path pairs of §5.2 that tell the monitor which
//     reference field to charge when a sampled miss lands on a heap
//     access instruction.
package opt

import (
	"fmt"

	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/compiler/emit"
	"hpmvm/internal/vm/ir"
	"hpmvm/internal/vm/mcmap"
)

// Allocatable register pool and scratch registers. r12/r13 are reserved
// for address arithmetic and bounds checks, r14 is an extra scratch,
// r15 is the hardwired zero.
const (
	numPoolRegs = 12
	scratchA    = 12
	scratchB    = 13
	zr          = cpu.RegZero
)

// Result is the output of one optimizing compilation.
type Result struct {
	Map *mcmap.MCMap
	// Func is the optimized IR, kept alive after compilation so the
	// monitor can attribute sampled events to IR instructions (§4.2
	// "this step is required to keep the IR data structures in memory
	// after compilation").
	Func *ir.Func
	// Pairs are the §5.2 (S, f) access-path pairs.
	Pairs []ir.AccessPair
}

// Compile optimizes and compiles a verified method body at the given
// optimization level and installs the code. The caller registers the
// resulting map.
func Compile(u *classfile.Universe, c *cpu.CPU, code *bytecode.Code, level int) (*Result, error) {
	if level >= 2 {
		if inlined, err := InlineCalls(u, code); err == nil {
			if res, err := compileBody(u, c, inlined, level); err == nil {
				return res, nil
			}
			// Inlining can exceed the 64-slot GC-map frame budget for
			// methods that were already local-heavy; fall back to the
			// uninlined body rather than failing the compilation.
		}
	}
	return compileBody(u, c, code, level)
}

// compileBody compiles one (possibly inlined) bytecode body. Frame
// budget violations surface as errors.
func compileBody(u *classfile.Universe, c *cpu.CPU, code *bytecode.Code, level int) (res *Result, err error) {
	f, err := ir.Build(u, code)
	if err != nil {
		return nil, err
	}
	ir.Optimize(f, level)
	// Level 2 uses the cross-block provenance extension; Jikes' HIR
	// use-def edges likewise span blocks (§5.2).
	var pairs []ir.AccessPair
	if level >= 2 {
		pairs = ir.ExtendedAccessPairs(f)
	} else {
		pairs = ir.AccessPairs(f)
	}

	g := &gen{
		a:         emit.New(c),
		f:         f,
		numLocals: f.NumLocals,
		regVal:    [cpu.NumRegs]int{},
	}
	for i := range g.regVal {
		g.regVal[i] = -1
	}
	g.valReg = make(map[int]uint8)
	g.valSlot = make(map[int]int)
	g.maxSlots = g.numLocals

	if f.NumLocals > 56 {
		return nil, fmt.Errorf("opt: %s: %d locals exceed the 64-slot GC map budget", f.Method.QualifiedName(), f.NumLocals)
	}
	defer func() {
		if r := recover(); r != nil {
			// Spill pressure blew the frame budget mid-codegen; no code
			// was installed (installation happens at Finish).
			err = fmt.Errorf("opt: %s: %v", f.Method.QualifiedName(), r)
		}
	}()
	m := g.compile()
	return &Result{Map: m, Func: f, Pairs: pairs}, nil
}

// gen is the per-method code generator state.
type gen struct {
	a *emit.Assembler
	f *ir.Func

	numLocals int
	maxSlots  int
	freeSlots []int

	// Per-block register allocation state.
	valReg  map[int]uint8
	valSlot map[int]int
	regVal  [cpu.NumRegs]int
	lastUse map[int]int
	nonNull map[int]bool

	// Current instruction position within the block (for liveness).
	pos int
	bci int32
	iid int32

	blockLabels []int
	npe, oob    int
	npeUsed     bool
	oobUsed     bool
	enterIdx    int
}

func (g *gen) emit(in cpu.Instr) { g.a.Emit(in, g.bci, g.iid) }

func (g *gen) compile() *mcmap.MCMap {
	f := g.f
	method := f.Method

	g.blockLabels = make([]int, len(f.Blocks))
	for i := range f.Blocks {
		g.blockLabels[i] = g.a.NewLabel()
	}
	g.npe = g.a.NewLabel()
	g.oob = g.a.NewLabel()

	// Prologue.
	g.bci, g.iid = mcmap.NoBCI, mcmap.NoBCI
	g.enterIdx = g.a.Emit(cpu.Instr{Op: cpu.OpEnter, Imm: 0}, mcmap.NoBCI, mcmap.NoBCI)
	nargs := len(method.Args)
	for i := 0; i < nargs; i++ {
		g.emit(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(i), Rs2: uint8(i)})
	}
	// All non-argument locals start as zero/null (VM semantics; also
	// keeps conservative GC maps sound for reference locals).
	for i := nargs; i < g.numLocals; i++ {
		g.emit(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(i), Rs2: zr})
	}

	for bi, blk := range f.Blocks {
		g.a.Bind(g.blockLabels[bi])
		g.startBlock(blk)
		for idx, in := range blk.Instrs {
			if in.Dead {
				continue
			}
			g.pos = idx
			g.bci = int32(in.BCI)
			g.iid = int32(in.Seq)
			g.instr(blk, bi, in, idx)
			g.freeDead(in, idx)
		}
	}

	if g.npeUsed {
		g.a.Bind(g.npe)
		g.a.Emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapNullPtr}, mcmap.NoBCI, mcmap.NoBCI)
	}
	if g.oobUsed {
		g.a.Bind(g.oob)
		g.a.Emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapBounds}, mcmap.NoBCI, mcmap.NoBCI)
	}

	g.a.Patch(g.enterIdx, int64(g.maxSlots*8))
	return g.a.Finish(method, true, g.maxSlots)
}

// startBlock resets the allocation state; values never live across
// block boundaries (cross-block flow goes through locals).
func (g *gen) startBlock(blk *ir.Block) {
	g.valReg = make(map[int]uint8)
	for i := range g.regVal {
		g.regVal[i] = -1
	}
	// Free all spill slots from the previous block.
	g.freeSlots = g.freeSlots[:0]
	for s := g.numLocals; s < g.maxSlots; s++ {
		g.freeSlots = append(g.freeSlots, s)
	}
	g.valSlot = make(map[int]int)
	g.nonNull = make(map[int]bool)

	g.lastUse = make(map[int]int)
	for idx, in := range blk.Instrs {
		if in.Dead {
			continue
		}
		for _, a := range in.Args {
			g.lastUse[a] = idx
		}
	}
}

func (g *gen) liveAfter(v, idx int) bool {
	lu, ok := g.lastUse[v]
	return ok && lu > idx
}

func (g *gen) allocSlot() int {
	if n := len(g.freeSlots); n > 0 {
		s := g.freeSlots[n-1]
		g.freeSlots = g.freeSlots[:n-1]
		return s
	}
	s := g.maxSlots
	g.maxSlots++
	if s >= 64 {
		panic(fmt.Sprintf("opt: %s: frame exceeds 64 slots (GC map width)", g.f.Method.QualifiedName()))
	}
	return s
}

func (g *gen) releaseSlot(v int) {
	if s, ok := g.valSlot[v]; ok {
		delete(g.valSlot, v)
		g.freeSlots = append(g.freeSlots, s)
	}
}

// freeDead releases registers and slots of values whose last use is the
// current instruction.
func (g *gen) freeDead(in *ir.Instr, idx int) {
	for _, a := range in.Args {
		if lu, ok := g.lastUse[a]; ok && lu == idx {
			if r, ok := g.valReg[a]; ok {
				delete(g.valReg, a)
				g.regVal[r] = -1
			}
			g.releaseSlot(a)
			delete(g.nonNull, a)
		}
	}
	// A def that is never used dies immediately.
	if in.HasDef() {
		if _, used := g.lastUse[in.ID]; !used {
			if r, ok := g.valReg[in.ID]; ok {
				delete(g.valReg, in.ID)
				g.regVal[r] = -1
			}
		}
	}
}

// isRemat reports whether the value can be rematerialized from its
// defining instruction instead of being spilled.
func (g *gen) isRemat(v int) (int64, bool) {
	def := g.f.Value(v)
	if def.Op == ir.OpConst || def.Op == ir.OpConstRef {
		return def.Const, true
	}
	return 0, false
}

// spillValue evicts v from its register, saving it to a spill slot
// unless it can be rematerialized.
func (g *gen) spillValue(v int) {
	r, ok := g.valReg[v]
	if !ok {
		return
	}
	if _, remat := g.isRemat(v); !remat {
		if _, has := g.valSlot[v]; !has {
			s := g.allocSlot()
			g.valSlot[v] = s
			g.emit(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(s), Rs2: r})
		}
	}
	delete(g.valReg, v)
	g.regVal[r] = -1
}

// allocReg returns a free pool register, evicting the occupant with the
// farthest last use if none is free. Registers in pinned are not
// considered for eviction.
func (g *gen) allocReg(pinned map[uint8]bool) uint8 {
	for r := uint8(0); r < numPoolRegs; r++ {
		if g.regVal[r] == -1 && !pinned[r] {
			return r
		}
	}
	victim := uint8(255)
	far := -1
	for r := uint8(0); r < numPoolRegs; r++ {
		if pinned[r] {
			continue
		}
		v := g.regVal[r]
		lu := g.lastUse[v]
		if lu > far {
			far = lu
			victim = r
		}
	}
	if victim == 255 {
		panic(fmt.Sprintf("opt: %s: register pressure with all registers pinned", g.f.Method.QualifiedName()))
	}
	g.spillValue(g.regVal[victim])
	return victim
}

// ensureReg makes sure value v is in a register and returns it.
func (g *gen) ensureReg(v int, pinned map[uint8]bool) uint8 {
	if r, ok := g.valReg[v]; ok {
		return r
	}
	r := g.allocReg(pinned)
	if cst, remat := g.isRemat(v); remat {
		g.emit(cpu.Instr{Op: cpu.OpMovImm, Rd: r, Imm: cst})
	} else if s, ok := g.valSlot[v]; ok {
		g.emit(cpu.Instr{Op: cpu.OpLd8, Rd: r, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(s)})
	} else {
		panic(fmt.Sprintf("opt: %s: value v%d has no location", g.f.Method.QualifiedName(), v))
	}
	g.bind(v, r)
	return r
}

func (g *gen) bind(v int, r uint8) {
	if old := g.regVal[r]; old != -1 {
		delete(g.valReg, old)
	}
	g.valReg[v] = r
	g.regVal[r] = v
}

// defReg allocates a destination register for a freshly defined value.
func (g *gen) defReg(v int, pinned map[uint8]bool) uint8 {
	r := g.allocReg(pinned)
	g.bind(v, r)
	return r
}

func pin(regs ...uint8) map[uint8]bool {
	m := make(map[uint8]bool, len(regs))
	for _, r := range regs {
		m[r] = true
	}
	return m
}

// evacuate moves a live occupant out of register r (to a spill slot)
// so r can be used for a fixed-register operation.
func (g *gen) evacuate(r uint8, idx int) {
	v := g.regVal[r]
	if v == -1 {
		return
	}
	if !g.liveAfter(v, idx) && g.lastUse[v] != idx {
		// Dead value; just drop it.
		delete(g.valReg, v)
		g.regVal[r] = -1
		return
	}
	g.spillValue(v)
}

// refLocalMask returns the GC-map mask over reference local homes.
func (g *gen) refLocalMask() uint64 {
	var m uint64
	for i, k := range g.f.LocalKinds {
		if k == classfile.KindRef {
			m |= 1 << uint(i)
		}
	}
	return m
}

// gcMaskAt computes the GC map at the current instruction: reference
// locals plus spilled live reference values (slots), plus live
// reference values in registers outside excludeRegs.
func (g *gen) gcMaskAt(idx int, excludeRegs map[uint8]bool) (refRegs uint16, refSlots uint64) {
	refSlots = g.refLocalMask()
	for v, s := range g.valSlot {
		if g.liveAfter(v, idx) && g.f.Value(v).Kind == classfile.KindRef {
			refSlots |= 1 << uint(s)
		}
	}
	for r := uint8(0); r < numPoolRegs; r++ {
		v := g.regVal[r]
		if v == -1 || excludeRegs[r] {
			continue
		}
		if g.liveAfter(v, idx) && g.f.Value(v).Kind == classfile.KindRef {
			refRegs |= 1 << uint(r)
		}
	}
	return refRegs, refSlots
}

// spillForCall spills every value needed at or after the call, then
// clears all register bindings (calls clobber the whole file).
func (g *gen) spillForCall(in *ir.Instr, idx int) {
	needed := make(map[int]bool)
	for _, a := range in.Args {
		needed[a] = true
	}
	for r := uint8(0); r < numPoolRegs; r++ {
		v := g.regVal[r]
		if v == -1 {
			continue
		}
		if needed[v] || g.liveAfter(v, idx) {
			g.spillValue(v)
		} else {
			delete(g.valReg, v)
			g.regVal[r] = -1
		}
	}
}

// loadArg materializes value v into the fixed argument register r
// after spillForCall has run.
func (g *gen) loadArg(v int, r uint8) {
	if cst, remat := g.isRemat(v); remat {
		g.emit(cpu.Instr{Op: cpu.OpMovImm, Rd: r, Imm: cst})
		return
	}
	s, ok := g.valSlot[v]
	if !ok {
		panic(fmt.Sprintf("opt: %s: call argument v%d not spilled", g.f.Method.QualifiedName(), v))
	}
	g.emit(cpu.Instr{Op: cpu.OpLd8, Rd: r, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(s)})
}

func (g *gen) nullCheck(v int, r uint8) {
	if g.nonNull[v] {
		return
	}
	g.npeUsed = true
	g.a.EmitJump(cpu.Instr{Op: cpu.OpBrEQ, Rs1: r, Rs2: zr}, g.npe, g.bci, g.iid)
	g.nonNull[v] = true
}

// elemAddr computes the address of arr[idx] into scratchB, including
// the null and bounds checks.
func (g *gen) elemAddr(arrV, idxV int, k classfile.Kind) (addrReg uint8) {
	arr := g.ensureReg(arrV, nil)
	idxR := g.ensureReg(idxV, pin(arr))
	g.nullCheck(arrV, arr)
	g.oobUsed = true
	g.emit(cpu.Instr{Op: cpu.OpLd4, Rd: scratchA, Rs1: arr, Imm: classfile.OffArrayLen})
	g.a.EmitJump(cpu.Instr{Op: cpu.OpBrUGE, Rs1: idxR, Rs2: scratchA}, g.oob, g.bci, g.iid)
	switch k.Size() {
	case 8:
		g.emit(cpu.Instr{Op: cpu.OpShlImm, Rd: scratchB, Rs1: idxR, Imm: 3})
		g.emit(cpu.Instr{Op: cpu.OpAdd, Rd: scratchB, Rs1: arr, Rs2: scratchB})
	case 2:
		g.emit(cpu.Instr{Op: cpu.OpShlImm, Rd: scratchB, Rs1: idxR, Imm: 1})
		g.emit(cpu.Instr{Op: cpu.OpAdd, Rd: scratchB, Rs1: arr, Rs2: scratchB})
	default:
		g.emit(cpu.Instr{Op: cpu.OpAdd, Rd: scratchB, Rs1: arr, Rs2: idxR})
	}
	return scratchB
}

func loadOpFor(k classfile.Kind) cpu.Op {
	switch k {
	case classfile.KindChar:
		return cpu.OpLd2
	case classfile.KindByte:
		return cpu.OpLd1
	default:
		return cpu.OpLd8
	}
}

func storeOpFor(k classfile.Kind) cpu.Op {
	switch k {
	case classfile.KindRef:
		return cpu.OpStRef // reference stores carry the write barrier
	case classfile.KindChar:
		return cpu.OpSt2
	case classfile.KindByte:
		return cpu.OpSt1
	default:
		return cpu.OpSt8
	}
}

var arithToCPU = map[ir.ArithOp]cpu.Op{
	ir.Add: cpu.OpAdd, ir.Sub: cpu.OpSub, ir.Mul: cpu.OpMul,
	ir.Div: cpu.OpDiv, ir.Rem: cpu.OpRem, ir.And: cpu.OpAnd,
	ir.Or: cpu.OpOr, ir.Xor: cpu.OpXor, ir.Shl: cpu.OpShl,
	ir.Shr: cpu.OpShr, ir.Sar: cpu.OpSar,
}

var condToCPU = map[ir.Cond]cpu.Op{
	ir.EQ: cpu.OpBrEQ, ir.NE: cpu.OpBrNE, ir.LT: cpu.OpBrLT,
	ir.LE: cpu.OpBrLE, ir.GT: cpu.OpBrGT, ir.GE: cpu.OpBrGE,
}

// instr generates code for one IR instruction.
func (g *gen) instr(blk *ir.Block, bi int, in *ir.Instr, idx int) {
	switch in.Op {
	case ir.OpConst, ir.OpConstRef:
		// Lazy: materialized at first use (rematerialization).

	case ir.OpLoadLocal:
		r := g.defReg(in.ID, nil)
		g.emit(cpu.Instr{Op: cpu.OpLd8, Rd: r, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(in.Local)})

	case ir.OpStoreLocal:
		r := g.ensureReg(in.Args[0], nil)
		g.emit(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(in.Local), Rs2: r})

	case ir.OpArith:
		a := g.ensureReg(in.Args[0], nil)
		b := g.ensureReg(in.Args[1], pin(a))
		r := g.defReg(in.ID, pin(a, b))
		g.emit(cpu.Instr{Op: arithToCPU[ir.ArithOp(in.Const)], Rd: r, Rs1: a, Rs2: b})

	case ir.OpNeg:
		a := g.ensureReg(in.Args[0], nil)
		r := g.defReg(in.ID, pin(a))
		g.emit(cpu.Instr{Op: cpu.OpSub, Rd: r, Rs1: zr, Rs2: a})

	case ir.OpGetField:
		obj := g.ensureReg(in.Args[0], nil)
		g.nullCheck(in.Args[0], obj)
		r := g.defReg(in.ID, pin(obj))
		g.emit(cpu.Instr{Op: loadOpFor(in.Field.Kind), Rd: r, Rs1: obj, Imm: int64(in.Field.Offset)})

	case ir.OpPutField:
		obj := g.ensureReg(in.Args[0], nil)
		val := g.ensureReg(in.Args[1], pin(obj))
		g.nullCheck(in.Args[0], obj)
		g.emit(cpu.Instr{Op: storeOpFor(in.Field.Kind), Rs1: obj, Imm: int64(in.Field.Offset), Rs2: val})

	case ir.OpALoad:
		addr := g.elemAddr(in.Args[0], in.Args[1], in.ElemKind)
		r := g.defReg(in.ID, nil)
		g.emit(cpu.Instr{Op: loadOpFor(in.ElemKind), Rd: r, Rs1: addr, Imm: classfile.HeaderSize})

	case ir.OpAStore:
		// Materialize the value first so address scratch regs stay free.
		val := g.ensureReg(in.Args[2], nil)
		addr := g.elemAddr(in.Args[0], in.Args[1], in.ElemKind)
		g.emit(cpu.Instr{Op: storeOpFor(in.ElemKind), Rs1: addr, Imm: classfile.HeaderSize, Rs2: val})

	case ir.OpArrayLen:
		arr := g.ensureReg(in.Args[0], nil)
		g.nullCheck(in.Args[0], arr)
		r := g.defReg(in.ID, pin(arr))
		g.emit(cpu.Instr{Op: cpu.OpLd4, Rd: r, Rs1: arr, Imm: classfile.OffArrayLen})

	case ir.OpNewObject:
		g.evacuate(0, idx)
		g.evacuate(1, idx)
		g.emit(cpu.Instr{Op: cpu.OpMovImm, Rd: 1, Imm: int64(in.Class.ID)})
		g.emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapAllocObject})
		refRegs, refSlots := g.gcMaskAt(idx, pin(0, 1))
		g.a.GCPoint(refRegs, refSlots, g.bci)
		g.bind(in.ID, 0)
		g.nonNull[in.ID] = true

	case ir.OpNewArray:
		g.evacuate(0, idx)
		g.evacuate(1, idx)
		g.evacuate(2, idx)
		ln := in.Args[0]
		if r, ok := g.valReg[ln]; ok && r != 2 {
			g.emit(cpu.Instr{Op: cpu.OpMov, Rd: 2, Rs1: r})
		} else if !ok {
			g.loadArgInto(ln, 2)
		}
		g.emit(cpu.Instr{Op: cpu.OpMovImm, Rd: 1, Imm: int64(in.Class.ID)})
		g.emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapAllocArray})
		refRegs, refSlots := g.gcMaskAt(idx, pin(0, 1, 2))
		g.a.GCPoint(refRegs, refSlots, g.bci)
		g.bind(in.ID, 0)
		g.nonNull[in.ID] = true

	case ir.OpCallStatic, ir.OpCallVirtual:
		g.spillForCall(in, idx)
		for i, a := range in.Args {
			g.loadArg(a, uint8(i))
		}
		if in.Op == ir.OpCallStatic {
			g.emit(cpu.Instr{Op: cpu.OpCallM, Imm: int64(in.Method.ID)})
		} else {
			g.emit(cpu.Instr{Op: cpu.OpCallV, Rs1: 0, Imm: int64(in.Method.VSlot)})
		}
		_, refSlots := g.gcMaskAt(idx, nil)
		g.a.GCPoint(0, refSlots, g.bci)
		if in.HasDef() {
			g.bind(in.ID, 0)
		}

	case ir.OpBranch:
		a := g.ensureReg(in.Args[0], nil)
		b := g.ensureReg(in.Args[1], pin(a))
		g.a.EmitJump(cpu.Instr{Op: condToCPU[in.Cond], Rs1: a, Rs2: b}, g.blockLabels[in.Target], g.bci, g.iid)

	case ir.OpGoto:
		if in.Target != bi+1 {
			g.a.EmitJump(cpu.Instr{Op: cpu.OpJmp}, g.blockLabels[in.Target], g.bci, g.iid)
		}

	case ir.OpReturn:
		g.emit(cpu.Instr{Op: cpu.OpLeave})
		g.emit(cpu.Instr{Op: cpu.OpRet})

	case ir.OpRetVal:
		v := in.Args[0]
		if r, ok := g.valReg[v]; ok {
			if r != 0 {
				g.emit(cpu.Instr{Op: cpu.OpMov, Rd: 0, Rs1: r})
			}
		} else {
			g.loadArgInto(v, 0)
		}
		g.emit(cpu.Instr{Op: cpu.OpLeave})
		g.emit(cpu.Instr{Op: cpu.OpRet})

	case ir.OpNullCheck:
		r := g.ensureReg(in.Args[0], nil)
		g.nullCheck(in.Args[0], r)

	case ir.OpResult:
		g.evacuate(1, idx)
		v := in.Args[0]
		if r, ok := g.valReg[v]; ok {
			if r != 1 {
				g.emit(cpu.Instr{Op: cpu.OpMov, Rd: 1, Rs1: r})
			}
		} else {
			g.loadArgInto(v, 1)
		}
		g.emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapResult})

	default:
		panic(fmt.Sprintf("opt: %s: unsupported IR op %v", g.f.Method.QualifiedName(), in.Op))
	}
}

// loadArgInto materializes v into a fixed register from a slot or
// rematerializable constant, without touching allocation state.
func (g *gen) loadArgInto(v int, r uint8) {
	if cst, remat := g.isRemat(v); remat {
		g.emit(cpu.Instr{Op: cpu.OpMovImm, Rd: r, Imm: cst})
		return
	}
	if s, ok := g.valSlot[v]; ok {
		g.emit(cpu.Instr{Op: cpu.OpLd8, Rd: r, Rs1: cpu.BaseFP, Imm: emit.SlotOffset(s)})
		return
	}
	panic(fmt.Sprintf("opt: %s: value v%d has no location for fixed reg %d", g.f.Method.QualifiedName(), v, r))
}
