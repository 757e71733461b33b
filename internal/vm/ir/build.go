package ir

import (
	"fmt"

	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

// Build converts verified bytecode into IR. Cross-block operand-stack
// values are spilled to dedicated temp locals so that every block is
// internally single-assignment; the verifier's per-index stack typing
// drives the conversion.
func Build(u *classfile.Universe, code *bytecode.Code) (*Func, error) {
	if code.StackIn == nil {
		return nil, fmt.Errorf("ir: %s: bytecode not verified", code.Method.QualifiedName())
	}
	f := &Func{
		Method:     code.Method,
		NumLocals:  code.NumLocals,
		LocalKinds: append([]classfile.Kind(nil), code.LocalKinds...),
	}

	// Temp locals for cross-block stack slots, allocated per
	// (depth, kind) on demand.
	type tempKey struct {
		depth int
		kind  classfile.Kind
	}
	temps := make(map[tempKey]int)
	tempLocal := func(depth int, kind classfile.Kind) int {
		k := tempKey{depth, kind}
		if slot, ok := temps[k]; ok {
			return slot
		}
		slot := f.NumLocals
		f.NumLocals++
		f.LocalKinds = append(f.LocalKinds, kind)
		temps[k] = slot
		return slot
	}

	// Identify basic-block leaders.
	n := len(code.Instrs)
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range code.Instrs {
		if in.Op.IsBranch() {
			leader[in.A] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if (in.Op == bytecode.OpReturn || in.Op == bytecode.OpReturnVal) && i+1 < n {
			leader[i+1] = true
		}
	}
	blockAt := make([]int, n)
	idx := -1
	for i := 0; i < n; i++ {
		if leader[i] {
			idx++
			f.Blocks = append(f.Blocks, &Block{Index: idx})
		}
		blockAt[i] = idx
	}

	widen := func(k classfile.Kind) classfile.Kind {
		if k == classfile.KindRef {
			return classfile.KindRef
		}
		return classfile.KindInt
	}

	// Convert each block.
	start := 0
	for bi := 0; bi < len(f.Blocks); bi++ {
		blk := f.Blocks[bi]
		end := n
		for i := start + 1; i < n; i++ {
			if leader[i] {
				end = i
				break
			}
		}

		emit := func(in *Instr, hasDef bool) *Instr {
			in = f.newInstr(in, hasDef)
			blk.Instrs = append(blk.Instrs, in)
			return in
		}

		// Reload the incoming operand stack from temp locals.
		var stack []int
		entryKinds := code.StackIn[start]
		for d, k := range entryKinds {
			k = widen(k)
			ld := emit(&Instr{Op: OpLoadLocal, Kind: k, Local: tempLocal(d, k), BCI: start}, true)
			stack = append(stack, ld.ID)
		}
		pop := func() int {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return v
		}
		pushv := func(id int) { stack = append(stack, id) }

		// spillStack stores the remaining stack into temp locals
		// before a control transfer.
		spillStack := func(bci int) {
			for d, v := range stack {
				k := f.values[v].Kind
				emit(&Instr{Op: OpStoreLocal, Local: tempLocal(d, k), Args: []int{v}, BCI: bci}, false)
			}
		}

		terminated := false
		for pc := start; pc < end; pc++ {
			in := code.Instrs[pc]
			switch in.Op {
			case bytecode.OpNop:

			case bytecode.OpConstInt:
				pushv(emit(&Instr{Op: OpConst, Kind: classfile.KindInt, Const: in.A, BCI: pc}, true).ID)
			case bytecode.OpConstNull:
				pushv(emit(&Instr{Op: OpConst, Kind: classfile.KindRef, Const: 0, BCI: pc}, true).ID)
			case bytecode.OpLoadConst:
				addr := code.RefConstAddrs[in.A]
				pushv(emit(&Instr{Op: OpConstRef, Kind: classfile.KindRef, Const: int64(addr), BCI: pc}, true).ID)

			case bytecode.OpLoad:
				k := widen(code.LocalKinds[in.A])
				pushv(emit(&Instr{Op: OpLoadLocal, Kind: k, Local: int(in.A), BCI: pc}, true).ID)
			case bytecode.OpStore:
				v := pop()
				emit(&Instr{Op: OpStoreLocal, Local: int(in.A), Args: []int{v}, BCI: pc}, false)
			case bytecode.OpIInc:
				ld := emit(&Instr{Op: OpLoadLocal, Kind: classfile.KindInt, Local: int(in.A), BCI: pc}, true)
				cst := emit(&Instr{Op: OpConst, Kind: classfile.KindInt, Const: in.B, BCI: pc}, true)
				sum := emit(&Instr{Op: OpArith, Kind: classfile.KindInt, Const: int64(Add), Args: []int{ld.ID, cst.ID}, BCI: pc}, true)
				emit(&Instr{Op: OpStoreLocal, Local: int(in.A), Args: []int{sum.ID}, BCI: pc}, false)

			case bytecode.OpGetField:
				fld := u.Field(int(in.A))
				obj := pop()
				pushv(emit(&Instr{Op: OpGetField, Kind: widen(fld.Kind), Field: fld, Args: []int{obj}, BCI: pc}, true).ID)
			case bytecode.OpPutField:
				fld := u.Field(int(in.A))
				val := pop()
				obj := pop()
				emit(&Instr{Op: OpPutField, Field: fld, Args: []int{obj, val}, BCI: pc}, false)

			case bytecode.OpNewObject:
				cl := u.Class(int(in.A))
				pushv(emit(&Instr{Op: OpNewObject, Kind: classfile.KindRef, Class: cl, BCI: pc}, true).ID)
			case bytecode.OpNewArray:
				cl := u.Class(int(in.A))
				ln := pop()
				pushv(emit(&Instr{Op: OpNewArray, Kind: classfile.KindRef, Class: cl, Args: []int{ln}, BCI: pc}, true).ID)

			case bytecode.OpALoad:
				k := classfile.Kind(in.A)
				i2 := pop()
				arr := pop()
				pushv(emit(&Instr{Op: OpALoad, Kind: widen(k), ElemKind: k, Args: []int{arr, i2}, BCI: pc}, true).ID)
			case bytecode.OpAStore:
				k := classfile.Kind(in.A)
				val := pop()
				i2 := pop()
				arr := pop()
				emit(&Instr{Op: OpAStore, ElemKind: k, Args: []int{arr, i2, val}, BCI: pc}, false)
			case bytecode.OpArrayLen:
				arr := pop()
				pushv(emit(&Instr{Op: OpArrayLen, Kind: classfile.KindInt, Args: []int{arr}, BCI: pc}, true).ID)

			case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpRem,
				bytecode.OpAnd, bytecode.OpOr, bytecode.OpXor, bytecode.OpShl, bytecode.OpShr, bytecode.OpSar:
				bo := pop()
				ao := pop()
				var aop ArithOp
				switch in.Op {
				case bytecode.OpAdd:
					aop = Add
				case bytecode.OpSub:
					aop = Sub
				case bytecode.OpMul:
					aop = Mul
				case bytecode.OpDiv:
					aop = Div
				case bytecode.OpRem:
					aop = Rem
				case bytecode.OpAnd:
					aop = And
				case bytecode.OpOr:
					aop = Or
				case bytecode.OpXor:
					aop = Xor
				case bytecode.OpShl:
					aop = Shl
				case bytecode.OpShr:
					aop = Shr
				case bytecode.OpSar:
					aop = Sar
				}
				pushv(emit(&Instr{Op: OpArith, Kind: classfile.KindInt, Const: int64(aop), Args: []int{ao, bo}, BCI: pc}, true).ID)
			case bytecode.OpNeg:
				v := pop()
				pushv(emit(&Instr{Op: OpNeg, Kind: classfile.KindInt, Args: []int{v}, BCI: pc}, true).ID)

			case bytecode.OpGoto:
				spillStack(pc)
				emit(&Instr{Op: OpGoto, Target: blockAt[in.A], BCI: pc}, false)
				terminated = true

			case bytecode.OpIfEQ, bytecode.OpIfNE, bytecode.OpIfLT, bytecode.OpIfLE,
				bytecode.OpIfGT, bytecode.OpIfGE:
				bo := pop()
				ao := pop()
				var cond Cond
				switch in.Op {
				case bytecode.OpIfEQ:
					cond = EQ
				case bytecode.OpIfNE:
					cond = NE
				case bytecode.OpIfLT:
					cond = LT
				case bytecode.OpIfLE:
					cond = LE
				case bytecode.OpIfGT:
					cond = GT
				case bytecode.OpIfGE:
					cond = GE
				}
				spillStack(pc)
				emit(&Instr{Op: OpBranch, Cond: cond, Args: []int{ao, bo}, Target: blockAt[in.A], BCI: pc}, false)
			case bytecode.OpIfNull, bytecode.OpIfNonNull:
				v := pop()
				z := emit(&Instr{Op: OpConst, Kind: classfile.KindRef, Const: 0, BCI: pc}, true)
				cond := EQ
				if in.Op == bytecode.OpIfNonNull {
					cond = NE
				}
				spillStack(pc)
				emit(&Instr{Op: OpBranch, Cond: cond, Args: []int{v, z.ID}, Target: blockAt[in.A], BCI: pc}, false)

			case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual:
				m := u.Method(int(in.A))
				args := make([]int, len(m.Args))
				for i := len(m.Args) - 1; i >= 0; i-- {
					args[i] = pop()
				}
				op := OpCallStatic
				if in.Op == bytecode.OpInvokeVirtual {
					op = OpCallVirtual
				}
				hasDef := m.Ret != classfile.KindVoid
				call := emit(&Instr{Op: op, Kind: widen(m.Ret), Method: m, Args: args, BCI: pc}, hasDef)
				if hasDef {
					pushv(call.ID)
				}

			case bytecode.OpReturn:
				emit(&Instr{Op: OpReturn, BCI: pc}, false)
				terminated = true
			case bytecode.OpReturnVal:
				v := pop()
				emit(&Instr{Op: OpRetVal, Args: []int{v}, BCI: pc}, false)
				terminated = true

			case bytecode.OpPop:
				pop()
			case bytecode.OpDup:
				v := pop()
				pushv(v)
				pushv(v)
			case bytecode.OpSwap:
				a := pop()
				b := pop()
				pushv(a)
				pushv(b)

			case bytecode.OpResult:
				v := pop()
				emit(&Instr{Op: OpResult, Args: []int{v}, BCI: pc}, false)

			case bytecode.OpNullCheck:
				v := pop()
				emit(&Instr{Op: OpNullCheck, Args: []int{v}, BCI: pc}, false)

			default:
				return nil, fmt.Errorf("ir: %s@%d: unsupported opcode %v", code.Method.QualifiedName(), pc, in.Op)
			}
		}

		// Establish the block terminator and successors. A block ending
		// in a conditional branch falls through to the next block (the
		// stack was already spilled before the branch); any other open
		// end gets an explicit goto.
		if !terminated {
			var last *Instr
			if len(blk.Instrs) > 0 {
				last = blk.Instrs[len(blk.Instrs)-1]
			}
			if last != nil && last.Op == OpBranch {
				blk.Succs = []int{bi + 1, last.Target}
			} else {
				spillStack(end - 1)
				emit(&Instr{Op: OpGoto, Target: bi + 1, BCI: end - 1}, false)
				blk.Succs = []int{bi + 1}
			}
		} else {
			last := blk.Instrs[len(blk.Instrs)-1]
			if last.Op == OpGoto {
				blk.Succs = []int{last.Target}
			}
		}
		start = end
	}
	return f, nil
}
