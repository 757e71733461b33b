// Package bytecode defines the VM's Java-like bytecode: a typed,
// stack-oriented instruction set that workload programs are written in
// and that both JIT compilers consume. A verifier infers the operand
// stack layout at every bytecode index; the compilers rely on that
// typing to build GC maps (which slots hold references) and the
// optimizing compiler's IR.
package bytecode

import (
	"fmt"

	"hpmvm/internal/vm/classfile"
)

// Opcode is a bytecode operation.
type Opcode uint8

// Bytecode opcodes. Operands A and B are stored in the instruction.
const (
	OpNop Opcode = iota

	OpConstInt  // push integer constant A
	OpConstNull // push null reference
	OpLoadConst // push reference constant: A indexes Code.RefConsts

	OpLoad  // push local slot A
	OpStore // pop into local slot A
	OpIInc  // local slot A += B (int local)

	OpGetField // pop objref, push field value; A = universe field ID
	OpPutField // pop value, pop objref, store field; A = universe field ID

	OpNewObject // push new instance; A = class ID
	OpNewArray  // pop length, push new array; A = class ID (array class)

	OpALoad    // pop index, pop arrayref, push element; A = element Kind
	OpAStore   // pop value, pop index, pop arrayref; A = element Kind
	OpArrayLen // pop arrayref, push length

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSar
	OpNeg

	OpGoto // A = target bytecode index
	OpIfEQ // pop b, pop a, branch to A if a == b
	OpIfNE
	OpIfLT
	OpIfLE
	OpIfGT
	OpIfGE
	OpIfNull    // pop ref, branch if null
	OpIfNonNull // pop ref, branch if non-null

	OpInvokeStatic  // A = method ID
	OpInvokeVirtual // A = method ID (must be virtual)

	OpReturn    // return void
	OpReturnVal // pop value of the method's return kind and return it

	OpPop
	OpDup
	OpSwap

	OpResult // pop int, append to the program's result log (verification)

	OpNullCheck // pop ref, trap (null pointer) when null — inlined receivers

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	OpNop: "nop", OpConstInt: "const", OpConstNull: "constnull", OpLoadConst: "ldconst",
	OpLoad: "load", OpStore: "store", OpIInc: "iinc",
	OpGetField: "getfield", OpPutField: "putfield",
	OpNewObject: "new", OpNewArray: "newarray",
	OpALoad: "aload", OpAStore: "astore", OpArrayLen: "arraylength",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpSar: "sar", OpNeg: "neg",
	OpGoto: "goto", OpIfEQ: "ifeq", OpIfNE: "ifne", OpIfLT: "iflt", OpIfLE: "ifle",
	OpIfGT: "ifgt", OpIfGE: "ifge", OpIfNull: "ifnull", OpIfNonNull: "ifnonnull",
	OpInvokeStatic: "invokestatic", OpInvokeVirtual: "invokevirtual",
	OpReturn: "return", OpReturnVal: "returnval",
	OpPop: "pop", OpDup: "dup", OpSwap: "swap", OpResult: "result",
	OpNullCheck: "nullcheck",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("opcode(%d)", int(o))
}

// IsBranch reports whether the opcode is a conditional or unconditional
// branch (operand A is a bytecode target index).
func (o Opcode) IsBranch() bool {
	return o == OpGoto || (o >= OpIfEQ && o <= OpIfNonNull)
}

// Instr is one bytecode instruction.
type Instr struct {
	Op Opcode
	A  int64
	B  int64
}

// Code is a method's verified bytecode body.
type Code struct {
	Method *classfile.Method
	Instrs []Instr

	// NumLocals is the number of local variable slots (arguments
	// occupy slots 0..len(Args)-1).
	NumLocals  int
	LocalKinds []classfile.Kind

	// RefConsts are symbolic reference-constant handles; the runtime
	// resolves handle i to the address in RefConstAddrs[i] before
	// compilation (constant objects live in the immortal space).
	RefConsts     int // number of reference constants
	RefConstAddrs []uint64

	// Verifier results: StackIn[i] is the operand stack (bottom to
	// top) on entry to instruction i; MaxStack the deepest stack.
	StackIn  [][]classfile.Kind
	MaxStack int
}

// Size returns the bytecode length in instructions.
func (c *Code) Size() int { return len(c.Instrs) }

// Disassemble renders the bytecode for debugging.
func (c *Code) Disassemble() string {
	out := fmt.Sprintf("%s (%d locals, max stack %d)\n", c.Method.QualifiedName(), c.NumLocals, c.MaxStack)
	for i, in := range c.Instrs {
		switch {
		case in.Op == OpIInc:
			out += fmt.Sprintf("  %4d: %s %d, %d\n", i, in.Op, in.A, in.B)
		case in.Op == OpNop || in.Op == OpConstNull || (in.Op >= OpALoad && in.Op <= OpArrayLen) ||
			(in.Op >= OpAdd && in.Op <= OpNeg) || in.Op >= OpReturn:
			out += fmt.Sprintf("  %4d: %s\n", i, in.Op)
		default:
			out += fmt.Sprintf("  %4d: %s %d\n", i, in.Op, in.A)
		}
	}
	return out
}
