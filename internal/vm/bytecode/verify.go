package bytecode

import (
	"fmt"

	"hpmvm/internal/vm/classfile"
)

// Verify type-checks the bytecode by abstract interpretation of the
// operand stack and records, for every instruction, the stack layout on
// entry (Code.StackIn) and the maximum stack depth. The compilers use
// this typing to build GC maps and the optimizing compiler's IR, so
// verification must succeed before compilation.
func Verify(u *classfile.Universe, c *Code) error {
	n := len(c.Instrs)
	if n == 0 {
		return fmt.Errorf("bytecode: %s: empty body", c.Method.QualifiedName())
	}
	c.StackIn = make([][]classfile.Kind, n)
	visited := make([]bool, n)

	type item struct {
		pc    int
		stack []classfile.Kind
	}
	work := []item{{pc: 0, stack: nil}}

	errAt := func(pc int, format string, args ...any) error {
		return fmt.Errorf("bytecode: %s@%d: %s", c.Method.QualifiedName(), pc, fmt.Sprintf(format, args...))
	}

	sameStack := func(a, b []classfile.Kind) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	push := func(s []classfile.Kind, k classfile.Kind) []classfile.Kind {
		return append(append([]classfile.Kind(nil), s...), k)
	}

	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, stack := it.pc, it.stack

		for {
			if pc < 0 || pc >= n {
				return errAt(pc, "control flow leaves method body")
			}
			if visited[pc] {
				if !sameStack(c.StackIn[pc], stack) {
					return errAt(pc, "inconsistent stack at merge: %v vs %v", c.StackIn[pc], stack)
				}
				break
			}
			visited[pc] = true
			c.StackIn[pc] = stack
			if len(stack) > c.MaxStack {
				c.MaxStack = len(stack)
			}

			in := c.Instrs[pc]
			pop := func(want classfile.Kind) (classfile.Kind, error) {
				if len(stack) == 0 {
					return 0, errAt(pc, "%v: stack underflow", in.Op)
				}
				k := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if want != classfile.KindVoid && k != want {
					return k, errAt(pc, "%v: expected %v on stack, found %v", in.Op, want, k)
				}
				return k, nil
			}
			// stackKind maps value kinds to the two stack kinds.
			widen := func(k classfile.Kind) classfile.Kind {
				if k == classfile.KindRef {
					return classfile.KindRef
				}
				return classfile.KindInt
			}

			var err error
			next := pc + 1
			branch := -1
			terminal := false

			switch in.Op {
			case OpNop:

			case OpConstInt:
				stack = push(stack, classfile.KindInt)
			case OpConstNull:
				stack = push(stack, classfile.KindRef)
			case OpLoadConst:
				if in.A < 0 || int(in.A) >= c.RefConsts {
					return errAt(pc, "ldconst handle %d out of range", in.A)
				}
				stack = push(stack, classfile.KindRef)

			case OpLoad:
				if in.A < 0 || int(in.A) >= c.NumLocals {
					return errAt(pc, "load from undefined local %d", in.A)
				}
				stack = push(stack, widen(c.LocalKinds[in.A]))
			case OpStore:
				if in.A < 0 || int(in.A) >= c.NumLocals {
					return errAt(pc, "store to undefined local %d", in.A)
				}
				if _, err = pop(widen(c.LocalKinds[in.A])); err != nil {
					return err
				}
			case OpIInc:
				if in.A < 0 || int(in.A) >= c.NumLocals || c.LocalKinds[in.A] != classfile.KindInt {
					return errAt(pc, "iinc on non-int local %d", in.A)
				}

			case OpGetField:
				f := u.Field(int(in.A))
				if _, err = pop(classfile.KindRef); err != nil {
					return err
				}
				stack = push(stack, widen(f.Kind))
			case OpPutField:
				f := u.Field(int(in.A))
				if _, err = pop(widen(f.Kind)); err != nil {
					return err
				}
				if _, err = pop(classfile.KindRef); err != nil {
					return err
				}

			case OpNewObject:
				cl := u.Class(int(in.A))
				if cl.IsArray {
					return errAt(pc, "new on array class %s", cl.Name)
				}
				stack = push(stack, classfile.KindRef)
			case OpNewArray:
				cl := u.Class(int(in.A))
				if !cl.IsArray {
					return errAt(pc, "newarray on scalar class %s", cl.Name)
				}
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				stack = push(stack, classfile.KindRef)

			case OpALoad:
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				if _, err = pop(classfile.KindRef); err != nil {
					return err
				}
				stack = push(stack, widen(classfile.Kind(in.A)))
			case OpAStore:
				if _, err = pop(widen(classfile.Kind(in.A))); err != nil {
					return err
				}
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				if _, err = pop(classfile.KindRef); err != nil {
					return err
				}
			case OpArrayLen:
				if _, err = pop(classfile.KindRef); err != nil {
					return err
				}
				stack = push(stack, classfile.KindInt)

			case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar:
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				stack = push(stack, classfile.KindInt)
			case OpNeg:
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				stack = push(stack, classfile.KindInt)

			case OpGoto:
				branch = int(in.A)
				terminal = true
			case OpIfEQ, OpIfNE, OpIfLT, OpIfLE, OpIfGT, OpIfGE:
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}
				branch = int(in.A)
			case OpIfNull, OpIfNonNull:
				if _, err = pop(classfile.KindRef); err != nil {
					return err
				}
				branch = int(in.A)

			case OpInvokeStatic, OpInvokeVirtual:
				m := u.Method(int(in.A))
				if in.Op == OpInvokeVirtual && !m.Virtual {
					return errAt(pc, "invokevirtual on static %s", m.QualifiedName())
				}
				if in.Op == OpInvokeStatic && m.Virtual {
					return errAt(pc, "invokestatic on virtual %s", m.QualifiedName())
				}
				for i := len(m.Args) - 1; i >= 0; i-- {
					if _, err = pop(widen(m.Args[i])); err != nil {
						return err
					}
				}
				if m.Ret != classfile.KindVoid {
					stack = push(stack, widen(m.Ret))
				}

			case OpReturn:
				if c.Method.Ret != classfile.KindVoid {
					return errAt(pc, "void return from %v method", c.Method.Ret)
				}
				terminal = true
			case OpReturnVal:
				if c.Method.Ret == classfile.KindVoid {
					return errAt(pc, "value return from void method")
				}
				if _, err = pop(widen(c.Method.Ret)); err != nil {
					return err
				}
				terminal = true

			case OpPop:
				if _, err = pop(classfile.KindVoid); err != nil {
					return err
				}
			case OpDup:
				if len(stack) == 0 {
					return errAt(pc, "dup on empty stack")
				}
				stack = push(stack, stack[len(stack)-1])
			case OpSwap:
				if len(stack) < 2 {
					return errAt(pc, "swap needs two stack slots")
				}
				stack = append([]classfile.Kind(nil), stack...)
				stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]

			case OpResult:
				if _, err = pop(classfile.KindInt); err != nil {
					return err
				}

			case OpNullCheck:
				if _, err = pop(classfile.KindRef); err != nil {
					return err
				}

			default:
				return errAt(pc, "unknown opcode %v", in.Op)
			}

			if branch >= 0 {
				work = append(work, item{pc: branch, stack: append([]classfile.Kind(nil), stack...)})
			}
			if terminal {
				break
			}
			pc = next
		}
	}

	// Every instruction must be reachable; unreachable code is almost
	// always a workload-builder bug.
	for i, v := range visited {
		if !v {
			return errAt(i, "unreachable instruction %v", c.Instrs[i].Op)
		}
	}
	return nil
}
