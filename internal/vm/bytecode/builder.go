package bytecode

import (
	"fmt"

	"hpmvm/internal/vm/classfile"
)

// Builder assembles the bytecode body of one method, with named locals
// and symbolic labels. Call Build to resolve labels and run the
// verifier; the resulting Code is attached to the method.
type Builder struct {
	u      *classfile.Universe
	m      *classfile.Method
	instrs []Instr
	locals []classfile.Kind
	names  map[string]int
	labels map[string]int
	fixups []fixup
	consts int
	err    error
}

type fixup struct {
	instr int
	label string
}

// NewBuilder starts a builder for method m. Argument locals are
// pre-declared in slots 0..len(Args)-1 under the names "arg0",
// "arg1", …; use BindArg to give them readable names (virtual methods
// conventionally bind arg 0 to "this").
func NewBuilder(u *classfile.Universe, m *classfile.Method) *Builder {
	b := &Builder{
		u:      u,
		m:      m,
		names:  make(map[string]int),
		labels: make(map[string]int),
	}
	for i, k := range m.Args {
		b.locals = append(b.locals, k)
		b.names[fmt.Sprintf("arg%d", i)] = i
	}
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("bytecode: %s: %s", b.m.QualifiedName(), fmt.Sprintf(format, args...))
	}
}

// BindArg names argument slot i.
func (b *Builder) BindArg(i int, name string) *Builder {
	if i < 0 || i >= len(b.m.Args) {
		b.fail("BindArg(%d) out of range", i)
		return b
	}
	b.names[name] = i
	return b
}

// Local declares a new named local variable and returns its slot.
func (b *Builder) Local(name string, kind classfile.Kind) int {
	if _, dup := b.names[name]; dup {
		b.fail("duplicate local %q", name)
		return 0
	}
	slot := len(b.locals)
	b.locals = append(b.locals, kind)
	b.names[name] = slot
	return slot
}

// RefConst allocates a reference-constant slot and returns its handle.
func (b *Builder) RefConst() int {
	h := b.consts
	b.consts++
	return h
}

func (b *Builder) slot(name string) int {
	s, ok := b.names[name]
	if !ok {
		b.fail("unknown local %q", name)
		return 0
	}
	return s
}

func (b *Builder) emit(op Opcode, a, bo int64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: op, A: a, B: bo})
	return b
}

// Const pushes an integer constant.
func (b *Builder) Const(v int64) *Builder { return b.emit(OpConstInt, v, 0) }

// Null pushes a null reference.
func (b *Builder) Null() *Builder { return b.emit(OpConstNull, 0, 0) }

// LoadConstRef pushes the reference constant with the given handle.
func (b *Builder) LoadConstRef(handle int) *Builder { return b.emit(OpLoadConst, int64(handle), 0) }

// Load pushes the named local.
func (b *Builder) Load(name string) *Builder { return b.emit(OpLoad, int64(b.slot(name)), 0) }

// Store pops into the named local.
func (b *Builder) Store(name string) *Builder { return b.emit(OpStore, int64(b.slot(name)), 0) }

// Inc adds delta to the named int local in place.
func (b *Builder) Inc(name string, delta int64) *Builder {
	return b.emit(OpIInc, int64(b.slot(name)), delta)
}

// GetField pops an object reference and pushes the field value.
func (b *Builder) GetField(f *classfile.Field) *Builder { return b.emit(OpGetField, int64(f.ID), 0) }

// PutField pops a value then an object reference and stores the field.
func (b *Builder) PutField(f *classfile.Field) *Builder { return b.emit(OpPutField, int64(f.ID), 0) }

// New pushes a fresh instance of class c.
func (b *Builder) New(c *classfile.Class) *Builder {
	if c.IsArray {
		b.fail("New on array class %s (use NewArray)", c.Name)
	}
	return b.emit(OpNewObject, int64(c.ID), 0)
}

// NewArray pops a length and pushes a fresh array of class c.
func (b *Builder) NewArray(c *classfile.Class) *Builder {
	if !c.IsArray {
		b.fail("NewArray on non-array class %s", c.Name)
	}
	return b.emit(OpNewArray, int64(c.ID), 0)
}

// ALoad pops index then array ref and pushes the element (ints are
// widened for char/byte arrays).
func (b *Builder) ALoad(elem classfile.Kind) *Builder { return b.emit(OpALoad, int64(elem), 0) }

// AStore pops value, index, then array ref and stores the element.
func (b *Builder) AStore(elem classfile.Kind) *Builder { return b.emit(OpAStore, int64(elem), 0) }

// ArrayLen pops an array reference and pushes its length.
func (b *Builder) ArrayLen() *Builder { return b.emit(OpArrayLen, 0, 0) }

// Arithmetic emitters: each pops its operands and pushes the result.
func (b *Builder) Add() *Builder { return b.emit(OpAdd, 0, 0) }
func (b *Builder) Sub() *Builder { return b.emit(OpSub, 0, 0) }
func (b *Builder) Mul() *Builder { return b.emit(OpMul, 0, 0) }
func (b *Builder) Div() *Builder { return b.emit(OpDiv, 0, 0) }
func (b *Builder) Rem() *Builder { return b.emit(OpRem, 0, 0) }
func (b *Builder) And() *Builder { return b.emit(OpAnd, 0, 0) }
func (b *Builder) Or() *Builder  { return b.emit(OpOr, 0, 0) }
func (b *Builder) Xor() *Builder { return b.emit(OpXor, 0, 0) }
func (b *Builder) Shl() *Builder { return b.emit(OpShl, 0, 0) }
func (b *Builder) Shr() *Builder { return b.emit(OpShr, 0, 0) }
func (b *Builder) Sar() *Builder { return b.emit(OpSar, 0, 0) }
func (b *Builder) Neg() *Builder { return b.emit(OpNeg, 0, 0) }

// Label defines a branch target at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.instrs)
	return b
}

func (b *Builder) branch(op Opcode, label string) *Builder {
	b.fixups = append(b.fixups, fixup{instr: len(b.instrs), label: label})
	return b.emit(op, -1, 0)
}

// Goto branches unconditionally to label.
func (b *Builder) Goto(label string) *Builder { return b.branch(OpGoto, label) }

// If pops b then a (both ints) and branches when "a cond b" holds.
// cond must be one of OpIfEQ..OpIfGE.
func (b *Builder) If(cond Opcode, label string) *Builder {
	if cond < OpIfEQ || cond > OpIfGE {
		b.fail("If with non-comparison opcode %v", cond)
	}
	return b.branch(cond, label)
}

// IfNull pops a reference and branches when it is null.
func (b *Builder) IfNull(label string) *Builder { return b.branch(OpIfNull, label) }

// IfNonNull pops a reference and branches when it is non-null.
func (b *Builder) IfNonNull(label string) *Builder { return b.branch(OpIfNonNull, label) }

// InvokeStatic calls a static method; arguments are popped (last
// pushed = last parameter) and the return value, if any, is pushed.
func (b *Builder) InvokeStatic(m *classfile.Method) *Builder {
	if m.Virtual {
		b.fail("InvokeStatic on virtual method %s", m.QualifiedName())
	}
	return b.emit(OpInvokeStatic, int64(m.ID), 0)
}

// InvokeVirtual calls a virtual method through the receiver's vtable;
// the receiver is the first pushed argument.
func (b *Builder) InvokeVirtual(m *classfile.Method) *Builder {
	if !m.Virtual {
		b.fail("InvokeVirtual on static method %s", m.QualifiedName())
	}
	return b.emit(OpInvokeVirtual, int64(m.ID), 0)
}

// Return returns void.
func (b *Builder) Return() *Builder { return b.emit(OpReturn, 0, 0) }

// ReturnVal pops the return value and returns it.
func (b *Builder) ReturnVal() *Builder { return b.emit(OpReturnVal, 0, 0) }

// Pop discards the top of stack.
func (b *Builder) Pop() *Builder { return b.emit(OpPop, 0, 0) }

// Dup duplicates the top of stack.
func (b *Builder) Dup() *Builder { return b.emit(OpDup, 0, 0) }

// Swap exchanges the two top stack slots.
func (b *Builder) Swap() *Builder { return b.emit(OpSwap, 0, 0) }

// Result pops an int and appends it to the program result log.
func (b *Builder) Result() *Builder { return b.emit(OpResult, 0, 0) }

// Build resolves labels, verifies the bytecode and attaches the Code
// to the method.
func (b *Builder) Build() (*Code, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, fx := range b.fixups {
		target, ok := b.labels[fx.label]
		if !ok {
			return nil, fmt.Errorf("bytecode: %s: undefined label %q", b.m.QualifiedName(), fx.label)
		}
		b.instrs[fx.instr].A = int64(target)
	}
	code := &Code{
		Method:        b.m,
		Instrs:        b.instrs,
		NumLocals:     len(b.locals),
		LocalKinds:    b.locals,
		RefConsts:     b.consts,
		RefConstAddrs: make([]uint64, b.consts),
	}
	if err := Verify(b.u, code); err != nil {
		return nil, err
	}
	b.m.Code = code
	return code, nil
}

// MustBuild is Build for code constructed by trusted in-process
// builders (workloads, tests); it panics on error.
func (b *Builder) MustBuild() *Code {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}
