// Package baseline implements the quick, non-optimizing JIT compiler —
// the analogue of the Jikes RVM baseline compiler (§3.2). Every method
// is baseline-compiled on first use; the adaptive optimization system
// later recompiles hot methods with the optimizing compiler.
//
// The compiler performs a direct stack-machine translation: the operand
// stack and local variables live in the method frame, each bytecode is
// expanded into a short fixed instruction pattern using scratch
// registers, and a complete machine-code → bytecode map is produced as
// a by-product (Jikes' baseline compiler also records this for every
// instruction, §4.2).
package baseline

import (
	"fmt"

	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/compiler/emit"
	"hpmvm/internal/vm/mcmap"
)

const (
	t0 = cpu.RegTmp0
	t1 = cpu.RegTmp1
	t2 = cpu.RegTmp2
	zr = cpu.RegZero
)

// Compile translates verified bytecode into machine code, installs it,
// and returns its machine-code map. The caller registers the map in
// the method table and the method entry table.
func Compile(u *classfile.Universe, c *cpu.CPU, code *bytecode.Code) *mcmap.MCMap {
	if code.StackIn == nil {
		panic(fmt.Sprintf("baseline: %s not verified", code.Method.QualifiedName()))
	}
	a := emit.New(c)
	numLocals := code.NumLocals
	frameSlots := numLocals + code.MaxStack
	if frameSlots > 64 {
		panic(fmt.Sprintf("baseline: %s: frame of %d slots exceeds the 64-slot GC map budget", code.Method.QualifiedName(), frameSlots))
	}

	// Labels for every bytecode branch target, plus shared trap blocks.
	targets := make(map[int]int)
	for _, in := range code.Instrs {
		if in.Op.IsBranch() {
			if _, ok := targets[int(in.A)]; !ok {
				targets[int(in.A)] = a.NewLabel()
			}
		}
	}
	npe := a.NewLabel()
	oob := a.NewLabel()
	npeUsed, oobUsed := false, false

	// Reference locals are part of every GC map; stack slots join
	// per-point based on the verifier's typing.
	var refLocalMask uint64
	for i, k := range code.LocalKinds {
		if k == classfile.KindRef {
			refLocalMask |= 1 << uint(i)
		}
	}

	slotOff := func(slot int) int64 { return emit.SlotOffset(slot) }
	stackOff := func(depth int) int64 { return slotOff(numLocals + depth) }

	// Prologue: build the frame, home the arguments, and zero all
	// non-argument locals. Locals start as zero/null by VM semantics
	// (like JVM fields, unlike JVM locals), and conservative GC maps
	// must never see uninitialized reference slots.
	a.Emit(cpu.Instr{Op: cpu.OpEnter, Imm: int64(frameSlots * 8)}, mcmap.NoBCI, mcmap.NoBCI)
	nargs := len(code.Method.Args)
	for i := 0; i < nargs; i++ {
		a.Emit(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: slotOff(i), Rs2: uint8(i)}, mcmap.NoBCI, mcmap.NoBCI)
	}
	for i := nargs; i < numLocals; i++ {
		a.Emit(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: slotOff(i), Rs2: zr}, mcmap.NoBCI, mcmap.NoBCI)
	}

	// gcMap builds the frame-slot reference mask for a GC point where
	// the operand stack holds `depth` live slots.
	gcMap := func(bci, depth int) uint64 {
		m := refLocalMask
		kinds := code.StackIn[bci]
		for d := 0; d < depth && d < len(kinds); d++ {
			if kinds[d] == classfile.KindRef {
				m |= 1 << uint(numLocals+d)
			}
		}
		return m
	}

	for pc, in := range code.Instrs {
		bci := int32(pc)
		if l, ok := targets[pc]; ok {
			a.Bind(l)
		}
		depth := len(code.StackIn[pc])

		// Shorthand emit helpers bound to this bytecode.
		e := func(i cpu.Instr) { a.Emit(i, bci, mcmap.NoBCI) }
		ldStack := func(reg uint8, d int) {
			e(cpu.Instr{Op: cpu.OpLd8, Rd: reg, Rs1: cpu.BaseFP, Imm: stackOff(d)})
		}
		stStack := func(d int, reg uint8) {
			e(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: stackOff(d), Rs2: reg})
		}
		nullCheck := func(reg uint8) {
			npeUsed = true
			a.EmitJump(cpu.Instr{Op: cpu.OpBrEQ, Rs1: reg, Rs2: zr}, npe, bci, mcmap.NoBCI)
		}

		switch in.Op {
		case bytecode.OpNop:
			e(cpu.Instr{Op: cpu.OpNop})

		case bytecode.OpConstInt:
			e(cpu.Instr{Op: cpu.OpMovImm, Rd: t0, Imm: in.A})
			stStack(depth, t0)
		case bytecode.OpConstNull:
			stStack(depth, zr)
		case bytecode.OpLoadConst:
			e(cpu.Instr{Op: cpu.OpMovImm, Rd: t0, Imm: int64(code.RefConstAddrs[in.A])})
			stStack(depth, t0)

		case bytecode.OpLoad:
			e(cpu.Instr{Op: cpu.OpLd8, Rd: t0, Rs1: cpu.BaseFP, Imm: slotOff(int(in.A))})
			stStack(depth, t0)
		case bytecode.OpStore:
			ldStack(t0, depth-1)
			e(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: slotOff(int(in.A)), Rs2: t0})
		case bytecode.OpIInc:
			e(cpu.Instr{Op: cpu.OpLd8, Rd: t0, Rs1: cpu.BaseFP, Imm: slotOff(int(in.A))})
			e(cpu.Instr{Op: cpu.OpAddImm, Rd: t0, Rs1: t0, Imm: in.B})
			e(cpu.Instr{Op: cpu.OpSt8, Rs1: cpu.BaseFP, Imm: slotOff(int(in.A)), Rs2: t0})

		case bytecode.OpGetField:
			f := u.Field(int(in.A))
			ldStack(t0, depth-1)
			nullCheck(t0)
			e(loadField(t1, t0, f))
			stStack(depth-1, t1)
		case bytecode.OpPutField:
			f := u.Field(int(in.A))
			ldStack(t0, depth-2)
			ldStack(t1, depth-1)
			nullCheck(t0)
			e(storeField(t0, f, t1))

		case bytecode.OpNewObject:
			e(cpu.Instr{Op: cpu.OpMovImm, Rd: 1, Imm: in.A})
			e(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapAllocObject})
			a.GCPoint(0, gcMap(pc, depth), bci)
			stStack(depth, 0)
		case bytecode.OpNewArray:
			ldStack(2, depth-1)
			e(cpu.Instr{Op: cpu.OpMovImm, Rd: 1, Imm: in.A})
			e(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapAllocArray})
			a.GCPoint(0, gcMap(pc, depth-1), bci)
			stStack(depth-1, 0)

		case bytecode.OpALoad:
			k := classfile.Kind(in.A)
			ldStack(t0, depth-2)
			nullCheck(t0)
			ldStack(t1, depth-1)
			oobUsed = true
			e(cpu.Instr{Op: cpu.OpLd4, Rd: t2, Rs1: t0, Imm: classfile.OffArrayLen})
			a.EmitJump(cpu.Instr{Op: cpu.OpBrUGE, Rs1: t1, Rs2: t2}, oob, bci, mcmap.NoBCI)
			e(cpu.Instr{Op: cpu.OpShlImm, Rd: t1, Rs1: t1, Imm: elemShift(k)})
			e(cpu.Instr{Op: cpu.OpAdd, Rd: t1, Rs1: t0, Rs2: t1})
			e(loadElem(t2, t1, k))
			stStack(depth-2, t2)
		case bytecode.OpAStore:
			k := classfile.Kind(in.A)
			ldStack(t0, depth-3)
			nullCheck(t0)
			ldStack(t1, depth-2)
			oobUsed = true
			e(cpu.Instr{Op: cpu.OpLd4, Rd: t2, Rs1: t0, Imm: classfile.OffArrayLen})
			a.EmitJump(cpu.Instr{Op: cpu.OpBrUGE, Rs1: t1, Rs2: t2}, oob, bci, mcmap.NoBCI)
			e(cpu.Instr{Op: cpu.OpShlImm, Rd: t1, Rs1: t1, Imm: elemShift(k)})
			e(cpu.Instr{Op: cpu.OpAdd, Rd: t1, Rs1: t0, Rs2: t1})
			ldStack(t2, depth-1)
			e(storeElem(t1, k, t2))
		case bytecode.OpArrayLen:
			ldStack(t0, depth-1)
			nullCheck(t0)
			e(cpu.Instr{Op: cpu.OpLd4, Rd: t1, Rs1: t0, Imm: classfile.OffArrayLen})
			stStack(depth-1, t1)

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpRem,
			bytecode.OpAnd, bytecode.OpOr, bytecode.OpXor, bytecode.OpShl, bytecode.OpShr, bytecode.OpSar:
			ldStack(t0, depth-2)
			ldStack(t1, depth-1)
			e(cpu.Instr{Op: arithOp(in.Op), Rd: t0, Rs1: t0, Rs2: t1})
			stStack(depth-2, t0)
		case bytecode.OpNeg:
			ldStack(t0, depth-1)
			e(cpu.Instr{Op: cpu.OpSub, Rd: t0, Rs1: zr, Rs2: t0})
			stStack(depth-1, t0)

		case bytecode.OpGoto:
			a.EmitJump(cpu.Instr{Op: cpu.OpJmp}, targets[int(in.A)], bci, mcmap.NoBCI)
		case bytecode.OpIfEQ, bytecode.OpIfNE, bytecode.OpIfLT, bytecode.OpIfLE,
			bytecode.OpIfGT, bytecode.OpIfGE:
			ldStack(t0, depth-2)
			ldStack(t1, depth-1)
			a.EmitJump(cpu.Instr{Op: branchOp(in.Op), Rs1: t0, Rs2: t1}, targets[int(in.A)], bci, mcmap.NoBCI)
		case bytecode.OpIfNull:
			ldStack(t0, depth-1)
			a.EmitJump(cpu.Instr{Op: cpu.OpBrEQ, Rs1: t0, Rs2: zr}, targets[int(in.A)], bci, mcmap.NoBCI)
		case bytecode.OpIfNonNull:
			ldStack(t0, depth-1)
			a.EmitJump(cpu.Instr{Op: cpu.OpBrNE, Rs1: t0, Rs2: zr}, targets[int(in.A)], bci, mcmap.NoBCI)

		case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual:
			m := u.Method(int(in.A))
			n := len(m.Args)
			for i := 0; i < n; i++ {
				ldStack(uint8(i), depth-n+i)
			}
			if in.Op == bytecode.OpInvokeStatic {
				e(cpu.Instr{Op: cpu.OpCallM, Imm: int64(m.ID)})
			} else {
				e(cpu.Instr{Op: cpu.OpCallV, Rs1: 0, Imm: int64(m.VSlot)})
			}
			a.GCPoint(0, gcMap(pc, depth-n), bci)
			if m.Ret != classfile.KindVoid {
				stStack(depth-n, 0)
			}

		case bytecode.OpReturn:
			e(cpu.Instr{Op: cpu.OpLeave})
			e(cpu.Instr{Op: cpu.OpRet})
		case bytecode.OpReturnVal:
			ldStack(0, depth-1)
			e(cpu.Instr{Op: cpu.OpLeave})
			e(cpu.Instr{Op: cpu.OpRet})

		case bytecode.OpPop:
			e(cpu.Instr{Op: cpu.OpNop})
		case bytecode.OpDup:
			ldStack(t0, depth-1)
			stStack(depth, t0)
		case bytecode.OpSwap:
			ldStack(t0, depth-2)
			ldStack(t1, depth-1)
			stStack(depth-2, t1)
			stStack(depth-1, t0)

		case bytecode.OpResult:
			ldStack(1, depth-1)
			e(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapResult})

		case bytecode.OpNullCheck:
			ldStack(t0, depth-1)
			nullCheck(t0)

		default:
			panic(fmt.Sprintf("baseline: %s@%d: unsupported opcode %v", code.Method.QualifiedName(), pc, in.Op))
		}
	}

	// Shared trap blocks.
	if npeUsed {
		a.Bind(npe)
		a.Emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapNullPtr}, mcmap.NoBCI, mcmap.NoBCI)
	}
	if oobUsed {
		a.Bind(oob)
		a.Emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapBounds}, mcmap.NoBCI, mcmap.NoBCI)
	}

	return a.Finish(code.Method, false, frameSlots)
}

func elemShift(k classfile.Kind) int64 {
	switch k.Size() {
	case 8:
		return 3
	case 2:
		return 1
	default:
		return 0
	}
}

func loadField(rd, obj uint8, f *classfile.Field) cpu.Instr {
	op := cpu.OpLd8
	switch f.Kind {
	case classfile.KindChar:
		op = cpu.OpLd2
	case classfile.KindByte:
		op = cpu.OpLd1
	}
	return cpu.Instr{Op: op, Rd: rd, Rs1: obj, Imm: int64(f.Offset)}
}

func storeField(obj uint8, f *classfile.Field, val uint8) cpu.Instr {
	op := cpu.OpSt8
	switch f.Kind {
	case classfile.KindRef:
		op = cpu.OpStRef // reference stores carry the write barrier
	case classfile.KindChar:
		op = cpu.OpSt2
	case classfile.KindByte:
		op = cpu.OpSt1
	}
	return cpu.Instr{Op: op, Rs1: obj, Imm: int64(f.Offset), Rs2: val}
}

func loadElem(rd, addr uint8, k classfile.Kind) cpu.Instr {
	op := cpu.OpLd8
	switch k {
	case classfile.KindChar:
		op = cpu.OpLd2
	case classfile.KindByte:
		op = cpu.OpLd1
	}
	return cpu.Instr{Op: op, Rd: rd, Rs1: addr, Imm: classfile.HeaderSize}
}

func storeElem(addr uint8, k classfile.Kind, val uint8) cpu.Instr {
	op := cpu.OpSt8
	switch k {
	case classfile.KindRef:
		op = cpu.OpStRef // reference stores carry the write barrier
	case classfile.KindChar:
		op = cpu.OpSt2
	case classfile.KindByte:
		op = cpu.OpSt1
	}
	return cpu.Instr{Op: op, Rs1: addr, Imm: classfile.HeaderSize, Rs2: val}
}

func arithOp(op bytecode.Opcode) cpu.Op {
	switch op {
	case bytecode.OpAdd:
		return cpu.OpAdd
	case bytecode.OpSub:
		return cpu.OpSub
	case bytecode.OpMul:
		return cpu.OpMul
	case bytecode.OpDiv:
		return cpu.OpDiv
	case bytecode.OpRem:
		return cpu.OpRem
	case bytecode.OpAnd:
		return cpu.OpAnd
	case bytecode.OpOr:
		return cpu.OpOr
	case bytecode.OpXor:
		return cpu.OpXor
	case bytecode.OpShl:
		return cpu.OpShl
	case bytecode.OpShr:
		return cpu.OpShr
	default:
		return cpu.OpSar
	}
}

func branchOp(op bytecode.Opcode) cpu.Op {
	switch op {
	case bytecode.OpIfEQ:
		return cpu.OpBrEQ
	case bytecode.OpIfNE:
		return cpu.OpBrNE
	case bytecode.OpIfLT:
		return cpu.OpBrLT
	case bytecode.OpIfLE:
		return cpu.OpBrLE
	case bytecode.OpIfGT:
		return cpu.OpBrGT
	default:
		return cpu.OpBrGE
	}
}
