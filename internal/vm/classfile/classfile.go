// Package classfile defines the VM's class model: classes with single
// inheritance, typed fields, virtual and static methods, array classes,
// and the object layout (header format, field offsets) shared by the
// compilers, the runtime and the garbage collectors.
//
// The model is deliberately Java-shaped — the paper's optimization
// reasons about "reference fields" of heap objects (§5.2), so the class
// model must expose, for every class, which slots of an instance hold
// references.
package classfile

import "fmt"

// Kind is the type of a field, array element, local variable or stack
// slot. The VM has two primitive widths that matter to the memory
// system (64-bit ints, 16-bit chars, 8-bit bytes) plus references.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer.
	KindInt Kind = iota
	// KindRef is an object reference (64-bit address).
	KindRef
	// KindChar is a 16-bit unsigned value (array elements and fields).
	KindChar
	// KindByte is an 8-bit unsigned value (array elements and fields).
	KindByte
	// KindVoid is used only as a method return kind.
	KindVoid
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindRef:
		return "ref"
	case KindChar:
		return "char"
	case KindByte:
		return "byte"
	case KindVoid:
		return "void"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Size returns the in-memory size of a value of this kind in bytes.
func (k Kind) Size() uint64 {
	switch k {
	case KindInt, KindRef:
		return 8
	case KindChar:
		return 2
	case KindByte:
		return 1
	default:
		return 0
	}
}

// Object header layout. Every heap object starts with a 16-byte header:
//
//	offset 0: uint32 class ID
//	offset 4: uint32 flags (GC mark, forwarded, …)
//	offset 8: uint64 — array length (low 32 bits) for arrays;
//	          forwarding pointer while an object is being evacuated
const (
	HeaderSize    = 16
	OffClassID    = 0
	OffFlags      = 4
	OffArrayLen   = 8
	OffForwarding = 8
	// ObjectAlign is the alignment of every heap object.
	ObjectAlign = 8
)

// Header flag bits.
const (
	FlagMark      uint32 = 1 << 0 // mark-sweep liveness mark
	FlagForwarded uint32 = 1 << 1 // offset 8 holds a forwarding pointer
)

// Field describes one declared instance field.
type Field struct {
	Name  string
	Kind  Kind
	Class *Class // declaring class

	// ID is the field's universe-wide identifier, used by bytecode
	// operands and by the monitor's per-field miss counters.
	ID int
	// Offset is the field's byte offset within an instance, set when
	// the declaring class is laid out.
	Offset uint64
}

// QualifiedName returns "Class::field", the notation the paper uses
// (e.g. String::value in Figure 7).
func (f *Field) QualifiedName() string {
	return f.Class.Name + "::" + f.Name
}

// Method describes a method. Bytecode is attached by the front end
// (package bytecode) as an opaque payload to avoid a dependency cycle.
type Method struct {
	Name  string
	Class *Class
	// ID is the universe-wide method identifier; the method entry
	// table (JTOC) is indexed by it.
	ID int
	// Virtual methods dispatch through the class vtable at VSlot;
	// static methods are called directly by ID.
	Virtual bool
	VSlot   int
	// Args lists parameter kinds. For virtual methods Args[0] is the
	// receiver (KindRef).
	Args []Kind
	// Ret is the return kind (KindVoid for none).
	Ret Kind
	// Code is the attached bytecode (a *bytecode.Code).
	Code any
}

// QualifiedName returns "Class::method".
func (m *Method) QualifiedName() string {
	if m.Class == nil {
		return m.Name
	}
	return m.Class.Name + "::" + m.Name
}

// Class is a loaded class or array class.
type Class struct {
	Name  string
	ID    int
	Super *Class

	// Fields declared by this class (not inherited).
	Fields []*Field
	// AllFields is the laid-out field list including inherited fields,
	// in offset order. Valid after layout.
	AllFields []*Field
	// RefOffsets lists the byte offsets of all reference fields within
	// an instance (the GC's scanning map).
	RefOffsets []uint64

	// Methods declared by this class.
	Methods []*Method
	// VTable maps vtable slots to the method that implements them for
	// this class (including inherited and overridden methods).
	VTable []*Method

	// InstanceSize is the total object size (header + fields, aligned)
	// for scalar classes. Arrays compute size from length.
	InstanceSize uint64

	// Array classes.
	IsArray  bool
	ElemKind Kind

	laidOut bool
}

// ArraySize returns the total object size for an array of n elements.
func (c *Class) ArraySize(n uint64) uint64 {
	if !c.IsArray {
		panic(fmt.Sprintf("classfile: ArraySize on non-array class %s", c.Name))
	}
	return align(HeaderSize+n*c.ElemKind.Size(), ObjectAlign)
}

// FieldByName finds a field (including inherited), or nil.
func (c *Class) FieldByName(name string) *Field {
	for _, f := range c.AllFields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// MethodByName finds a declared method, or nil.
func (c *Class) MethodByName(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

func align(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// Universe holds every loaded class, field and method. It is the
// VM's class registry ("class loader" in the paper's terminology).
type Universe struct {
	classes []*Class
	fields  []*Field
	methods []*Method

	// Predefined array classes.
	IntArray  *Class
	RefArray  *Class
	CharArray *Class
	ByteArray *Class
}

// NewUniverse creates a universe with the built-in array classes.
func NewUniverse() *Universe {
	u := &Universe{}
	u.IntArray = u.defineArray("int[]", KindInt)
	u.RefArray = u.defineArray("ref[]", KindRef)
	u.CharArray = u.defineArray("char[]", KindChar)
	u.ByteArray = u.defineArray("byte[]", KindByte)
	return u
}

func (u *Universe) defineArray(name string, elem Kind) *Class {
	c := &Class{Name: name, ID: len(u.classes), IsArray: true, ElemKind: elem, laidOut: true}
	c.InstanceSize = HeaderSize
	u.classes = append(u.classes, c)
	return c
}

// DefineClass registers a new scalar class. super may be nil.
func (u *Universe) DefineClass(name string, super *Class) *Class {
	if super != nil && super.IsArray {
		panic(fmt.Sprintf("classfile: class %s cannot extend array class %s", name, super.Name))
	}
	c := &Class{Name: name, ID: len(u.classes), Super: super}
	u.classes = append(u.classes, c)
	return c
}

// AddField declares an instance field on a not-yet-laid-out class.
func (u *Universe) AddField(c *Class, name string, kind Kind) *Field {
	if c.laidOut {
		panic(fmt.Sprintf("classfile: class %s already laid out", c.Name))
	}
	if kind == KindVoid {
		panic("classfile: field cannot have void kind")
	}
	f := &Field{Name: name, Kind: kind, Class: c, ID: len(u.fields)}
	u.fields = append(u.fields, f)
	c.Fields = append(c.Fields, f)
	return f
}

// AddMethod declares a method. For virtual methods, args must start
// with the receiver kind (KindRef); a vtable slot is assigned during
// Layout (overriding a same-named super method reuses its slot).
func (u *Universe) AddMethod(c *Class, name string, virtual bool, args []Kind, ret Kind) *Method {
	if len(args) > 8 {
		panic(fmt.Sprintf("classfile: method %s::%s has %d args; max 8 (register convention)", c.Name, name, len(args)))
	}
	if virtual && (len(args) == 0 || args[0] != KindRef) {
		panic(fmt.Sprintf("classfile: virtual method %s::%s must take receiver as first arg", c.Name, name))
	}
	m := &Method{
		Name: name, Class: c, ID: len(u.methods),
		Virtual: virtual, VSlot: -1,
		Args: append([]Kind(nil), args...), Ret: ret,
	}
	u.methods = append(u.methods, m)
	c.Methods = append(c.Methods, m)
	return m
}

// Layout computes field offsets, instance sizes and vtables for every
// class. It must be called once after all definitions and before
// compilation. Classes are laid out parents-first.
func (u *Universe) Layout() {
	var lay func(c *Class)
	lay = func(c *Class) {
		if c.laidOut {
			return
		}
		if c.Super != nil {
			lay(c.Super)
		}
		off := uint64(HeaderSize)
		var all []*Field
		var vtable []*Method
		if c.Super != nil {
			all = append(all, c.Super.AllFields...)
			off = c.Super.InstanceSize
			vtable = append(vtable, c.Super.VTable...)
		}
		for _, f := range c.Fields {
			sz := f.Kind.Size()
			off = align(off, sz)
			f.Offset = off
			off += sz
			all = append(all, f)
		}
		c.AllFields = all
		c.InstanceSize = align(off, ObjectAlign)
		for _, f := range all {
			if f.Kind == KindRef {
				c.RefOffsets = append(c.RefOffsets, f.Offset)
			}
		}
		// vtable: overrides reuse the super's slot.
		for _, m := range c.Methods {
			if !m.Virtual {
				continue
			}
			slot := -1
			for i, sm := range vtable {
				if sm.Name == m.Name {
					slot = i
					break
				}
			}
			if slot >= 0 {
				m.VSlot = slot
				vtable[slot] = m
			} else {
				m.VSlot = len(vtable)
				vtable = append(vtable, m)
			}
		}
		c.VTable = vtable
		c.laidOut = true
	}
	for _, c := range u.classes {
		lay(c)
	}
}

// Class returns the class with the given ID.
func (u *Universe) Class(id int) *Class {
	if id < 0 || id >= len(u.classes) {
		panic(fmt.Sprintf("classfile: bad class id %d", id))
	}
	return u.classes[id]
}

// Field returns the field with the given universe-wide ID.
func (u *Universe) Field(id int) *Field {
	if id < 0 || id >= len(u.fields) {
		panic(fmt.Sprintf("classfile: bad field id %d", id))
	}
	return u.fields[id]
}

// Method returns the method with the given universe-wide ID.
func (u *Universe) Method(id int) *Method {
	if id < 0 || id >= len(u.methods) {
		panic(fmt.Sprintf("classfile: bad method id %d", id))
	}
	return u.methods[id]
}

// Classes returns all classes in definition order.
func (u *Universe) Classes() []*Class { return u.classes }

// Methods returns all methods in definition order.
func (u *Universe) Methods() []*Method { return u.methods }

// Fields returns all fields in definition order.
func (u *Universe) Fields() []*Field { return u.fields }
