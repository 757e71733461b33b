package classfile

import "testing"

func TestKindSizes(t *testing.T) {
	if KindInt.Size() != 8 || KindRef.Size() != 8 || KindChar.Size() != 2 || KindByte.Size() != 1 || KindVoid.Size() != 0 {
		t.Error("kind sizes wrong")
	}
	if KindRef.String() != "ref" || KindVoid.String() != "void" {
		t.Error("kind names wrong")
	}
}

func TestFieldLayout(t *testing.T) {
	u := NewUniverse()
	c := u.DefineClass("Mixed", nil)
	fr := u.AddField(c, "r", KindRef)
	fc := u.AddField(c, "c", KindChar)
	fb := u.AddField(c, "b", KindByte)
	fi := u.AddField(c, "i", KindInt)
	u.Layout()

	if fr.Offset != HeaderSize {
		t.Errorf("ref offset = %d", fr.Offset)
	}
	if fc.Offset != HeaderSize+8 {
		t.Errorf("char offset = %d", fc.Offset)
	}
	if fb.Offset != HeaderSize+10 {
		t.Errorf("byte offset = %d", fb.Offset)
	}
	// int needs 8-byte alignment after the 11 bytes used.
	if fi.Offset != HeaderSize+16 {
		t.Errorf("int offset = %d", fi.Offset)
	}
	if c.InstanceSize != HeaderSize+24 {
		t.Errorf("instance size = %d", c.InstanceSize)
	}
	if len(c.RefOffsets) != 1 || c.RefOffsets[0] != HeaderSize {
		t.Errorf("RefOffsets = %v", c.RefOffsets)
	}
}

func TestInheritanceLayout(t *testing.T) {
	u := NewUniverse()
	a := u.DefineClass("A", nil)
	u.AddField(a, "x", KindInt)
	fref := u.AddField(a, "p", KindRef)
	b := u.DefineClass("B", a)
	fy := u.AddField(b, "y", KindInt)
	u.Layout()

	if fy.Offset != a.InstanceSize {
		t.Errorf("subclass field offset = %d, want %d", fy.Offset, a.InstanceSize)
	}
	if len(b.AllFields) != 3 {
		t.Errorf("AllFields = %d", len(b.AllFields))
	}
	if b.FieldByName("x") == nil || b.FieldByName("p") != fref {
		t.Error("inherited field lookup broken")
	}
	if len(b.RefOffsets) != 1 {
		t.Errorf("inherited RefOffsets = %v", b.RefOffsets)
	}
}

func TestVTableOverride(t *testing.T) {
	u := NewUniverse()
	a := u.DefineClass("A", nil)
	mFoo := u.AddMethod(a, "foo", true, []Kind{KindRef}, KindInt)
	mBar := u.AddMethod(a, "bar", true, []Kind{KindRef}, KindVoid)
	b := u.DefineClass("B", a)
	mFooB := u.AddMethod(b, "foo", true, []Kind{KindRef}, KindInt)
	mBaz := u.AddMethod(b, "baz", true, []Kind{KindRef}, KindVoid)
	u.Layout()

	if mFoo.VSlot != 0 || mBar.VSlot != 1 {
		t.Errorf("base slots: foo=%d bar=%d", mFoo.VSlot, mBar.VSlot)
	}
	if mFooB.VSlot != mFoo.VSlot {
		t.Errorf("override got new slot %d", mFooB.VSlot)
	}
	if mBaz.VSlot != 2 {
		t.Errorf("new virtual slot = %d", mBaz.VSlot)
	}
	if b.VTable[0] != mFooB || b.VTable[1] != mBar || b.VTable[2] != mBaz {
		t.Error("B vtable contents wrong")
	}
	if a.VTable[0] != mFoo {
		t.Error("A vtable affected by subclass")
	}
}

func TestArrayClasses(t *testing.T) {
	u := NewUniverse()
	if !u.IntArray.IsArray || u.IntArray.ElemKind != KindInt {
		t.Error("IntArray malformed")
	}
	if u.CharArray.ArraySize(3) != HeaderSize+8 { // 6 bytes rounded to 8
		t.Errorf("char[3] size = %d", u.CharArray.ArraySize(3))
	}
	if u.RefArray.ArraySize(2) != HeaderSize+16 {
		t.Errorf("ref[2] size = %d", u.RefArray.ArraySize(2))
	}
}

func TestUniverseAccessors(t *testing.T) {
	u := NewUniverse()
	c := u.DefineClass("C", nil)
	f := u.AddField(c, "f", KindInt)
	m := u.AddMethod(c, "m", false, nil, KindVoid)
	u.Layout()
	if u.Class(c.ID) != c || u.Field(f.ID) != f || u.Method(m.ID) != m {
		t.Error("ID accessors broken")
	}
	if f.QualifiedName() != "C::f" || m.QualifiedName() != "C::m" {
		t.Error("qualified names wrong")
	}
	if c.MethodByName("m") != m || c.MethodByName("nope") != nil {
		t.Error("MethodByName broken")
	}
}

func TestGuards(t *testing.T) {
	u := NewUniverse()
	c := u.DefineClass("C", nil)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("void field", func() { u.AddField(c, "v", KindVoid) })
	expectPanic("9 args", func() {
		u.AddMethod(c, "m", false, make([]Kind, 9), KindVoid)
	})
	expectPanic("virtual without receiver", func() {
		u.AddMethod(c, "v", true, []Kind{KindInt}, KindVoid)
	})
	expectPanic("extend array", func() { u.DefineClass("D", u.IntArray) })
	expectPanic("bad class id", func() { u.Class(999) })
	u.Layout()
	expectPanic("field after layout", func() { u.AddField(c, "late", KindInt) })
	expectPanic("ArraySize on scalar", func() { c.ArraySize(1) })
}
