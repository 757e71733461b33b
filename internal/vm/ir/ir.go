// Package ir is the optimizing compiler's high-level intermediate
// representation: a CFG of basic blocks holding three-address
// instructions over virtual values, with single assignment within each
// block (cross-block data flow goes through explicit local-variable
// load/store instructions).
//
// Every IR instruction records the bytecode index it came from; the
// machine-code maps extend this provenance down to individual machine
// instructions, which is what lets the monitor attribute a sampled
// cache miss to an IR instruction and then to a reference field
// (§4.2, §5.2: "internally we actually use the actual high-level IR
// instructions that correspond to the bytecode").
package ir

import (
	"fmt"
	"strings"

	"hpmvm/internal/vm/classfile"
)

// Op is an IR operation.
type Op uint8

const (
	OpConst    Op = iota // define integer constant Const
	OpConstRef           // define reference constant (resolved address in Const)

	OpLoadLocal  // define value of local Local
	OpStoreLocal // store Args[0] into local Local

	OpArith // define Args[0] <ArithOp> Args[1]
	OpNeg   // define -Args[0]

	OpGetField // define Args[0].Field
	OpPutField // Args[0].Field = Args[1]

	OpNewObject // define new Class
	OpNewArray  // define new Class[Args[0]]

	OpALoad    // define Args[0][Args[1]] (element kind ElemKind)
	OpAStore   // Args[0][Args[1]] = Args[2]
	OpArrayLen // define length of Args[0]

	OpCallStatic  // define (or void) call of Method with Args
	OpCallVirtual // define (or void) virtual call; Args[0] is receiver

	OpBranch // if Args[0] <Cond> Args[1] goto block Target, else fall through
	OpGoto   // goto block Target
	OpReturn // return void
	OpRetVal // return Args[0]

	OpResult // append Args[0] to the program result log

	OpNullCheck // trap when Args[0] is null (inlined virtual receiver)

	numIROps
)

var irOpNames = [numIROps]string{
	OpConst: "const", OpConstRef: "constref",
	OpLoadLocal: "loadlocal", OpStoreLocal: "storelocal",
	OpArith: "arith", OpNeg: "neg",
	OpGetField: "getfield", OpPutField: "putfield",
	OpNewObject: "new", OpNewArray: "newarray",
	OpALoad: "aload", OpAStore: "astore", OpArrayLen: "arraylen",
	OpCallStatic: "callstatic", OpCallVirtual: "callvirtual",
	OpBranch: "branch", OpGoto: "goto", OpReturn: "return", OpRetVal: "retval",
	OpResult: "result", OpNullCheck: "nullcheck",
}

func (o Op) String() string {
	if int(o) < len(irOpNames) && irOpNames[o] != "" {
		return irOpNames[o]
	}
	return fmt.Sprintf("irop(%d)", int(o))
}

// ArithOp enumerates binary integer operations.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Sar
)

var arithNames = []string{"add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "sar"}

func (a ArithOp) String() string { return arithNames[a] }

// Cond enumerates branch conditions. Reference equality uses EQ/NE on
// the 64-bit address values.
type Cond uint8

const (
	EQ Cond = iota
	NE
	LT
	LE
	GT
	GE
)

var condNames = []string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string { return condNames[c] }

// NoValue marks instructions that define nothing.
const NoValue = -1

// Instr is one IR instruction. ID is the defined value (NoValue for
// pure effects); Args reference the IDs of operand-defining
// instructions.
type Instr struct {
	ID int
	// Seq is the function-wide instruction sequence number; unlike ID
	// it is assigned to every instruction (including effect-only ones)
	// and is what the machine-code maps record as the "IR id".
	Seq  int
	Op   Op
	Kind classfile.Kind // kind of the defined value
	Args []int

	Const    int64
	Field    *classfile.Field
	Class    *classfile.Class
	Method   *classfile.Method
	Local    int
	ElemKind classfile.Kind
	Cond     Cond
	Target   int // successor block index for OpBranch/OpGoto

	// BCI is the bytecode index this instruction derives from.
	BCI int

	// Dead marks instructions removed by DCE (kept in place so value
	// IDs stay stable; codegen skips them).
	Dead bool
}

// HasDef reports whether the instruction defines a value.
func (in *Instr) HasDef() bool { return in.ID != NoValue }

// IsHeapAccess reports whether the instruction reads or writes a heap
// object through a reference — the instruction set S of the paper's
// co-allocation analysis (§5.2: "field/array access, virtual calls and
// object-header access").
func (in *Instr) IsHeapAccess() bool {
	switch in.Op {
	case OpGetField, OpPutField, OpALoad, OpAStore, OpArrayLen, OpCallVirtual:
		return true
	}
	return false
}

// ObjectArg returns the value ID of the object reference a heap access
// dereferences, or NoValue.
func (in *Instr) ObjectArg() int {
	if !in.IsHeapAccess() {
		return NoValue
	}
	return in.Args[0]
}

func (in *Instr) String() string {
	var b strings.Builder
	if in.HasDef() {
		fmt.Fprintf(&b, "v%d = ", in.ID)
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConst, OpConstRef:
		fmt.Fprintf(&b, " %d", in.Const)
	case OpLoadLocal, OpStoreLocal:
		fmt.Fprintf(&b, " l%d", in.Local)
	case OpArith:
		fmt.Fprintf(&b, ".%s", ArithOp(in.Const))
	case OpGetField, OpPutField:
		fmt.Fprintf(&b, " %s", in.Field.QualifiedName())
	case OpNewObject, OpNewArray:
		fmt.Fprintf(&b, " %s", in.Class.Name)
	case OpALoad, OpAStore:
		fmt.Fprintf(&b, ".%s", in.ElemKind)
	case OpCallStatic, OpCallVirtual:
		fmt.Fprintf(&b, " %s", in.Method.QualifiedName())
	case OpBranch:
		fmt.Fprintf(&b, ".%s -> b%d", in.Cond, in.Target)
	case OpGoto:
		fmt.Fprintf(&b, " -> b%d", in.Target)
	}
	for _, a := range in.Args {
		fmt.Fprintf(&b, " v%d", a)
	}
	fmt.Fprintf(&b, "  [bci %d]", in.BCI)
	return b.String()
}

// Block is a basic block.
type Block struct {
	Index  int
	Instrs []*Instr
	// Succs lists successor block indices (fallthrough first, then
	// branch target). Terminators are the last instruction.
	Succs []int
}

// Func is a whole method in IR form.
type Func struct {
	Method *classfile.Method
	Blocks []*Block

	// NumLocals includes stack-spill temp locals appended after the
	// bytecode locals.
	NumLocals  int
	LocalKinds []classfile.Kind

	values []*Instr // value ID -> defining instruction
	seq    int      // instruction sequence counter
}

// Value returns the instruction defining value id.
func (f *Func) Value(id int) *Instr { return f.values[id] }

func (f *Func) newInstr(in *Instr, hasDef bool) *Instr {
	in.Seq = f.seq
	f.seq++
	if hasDef {
		in.ID = len(f.values)
		f.values = append(f.values, in)
	} else {
		in.ID = NoValue
	}
	return in
}

// InstrBySeq returns the instruction with the given sequence number,
// or nil (the monitor resolves sampled IR ids through this).
func (f *Func) InstrBySeq(seq int) *Instr {
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Seq == seq {
				return in
			}
		}
	}
	return nil
}

// String renders the whole function for debugging.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (%d locals)\n", f.Method.QualifiedName(), f.NumLocals)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d: (succs %v)\n", blk.Index, blk.Succs)
		for _, in := range blk.Instrs {
			if in.Dead {
				continue
			}
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	return b.String()
}
