package bytecode

import (
	"strings"
	"testing"

	"hpmvm/internal/vm/classfile"
)

func testMethod(t *testing.T, args []classfile.Kind, ret classfile.Kind) (*classfile.Universe, *classfile.Method) {
	t.Helper()
	u := classfile.NewUniverse()
	c := u.DefineClass("T", nil)
	m := u.AddMethod(c, "m", false, args, ret)
	return u, m
}

func TestBuildSimple(t *testing.T) {
	u, m := testMethod(t, []classfile.Kind{classfile.KindInt}, classfile.KindInt)
	b := NewBuilder(u, m)
	b.BindArg(0, "x")
	b.Load("x").Const(1).Add().ReturnVal()
	code, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if code.MaxStack != 2 || code.NumLocals != 1 {
		t.Errorf("MaxStack=%d NumLocals=%d", code.MaxStack, code.NumLocals)
	}
	if m.Code != code {
		t.Error("code not attached to method")
	}
}

func TestLabelsAndBranches(t *testing.T) {
	u, m := testMethod(t, []classfile.Kind{classfile.KindInt}, classfile.KindInt)
	b := NewBuilder(u, m)
	b.BindArg(0, "n")
	b.Local("sum", classfile.KindInt)
	b.Local("i", classfile.KindInt)
	b.Label("loop")
	b.Load("i").Load("n").If(OpIfGE, "done")
	b.Load("sum").Load("i").Add().Store("sum")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("done")
	b.Load("sum").ReturnVal()
	code, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Branch targets must be resolved to instruction indices.
	for _, in := range code.Instrs {
		if in.Op.IsBranch() && (in.A < 0 || int(in.A) >= len(code.Instrs)) {
			t.Errorf("unresolved branch target %d", in.A)
		}
	}
}

func TestUndefinedLabel(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Goto("nowhere")
	b.Return()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("err = %v", err)
	}
}

func TestDuplicateLabel(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Label("x")
	b.Label("x")
	b.Return()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownLocal(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Load("ghost")
	b.Return()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown local") {
		t.Errorf("err = %v", err)
	}
}

func TestVerifierStackUnderflow(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Pop()
	b.Return()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("err = %v", err)
	}
}

func TestVerifierTypeMismatch(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Const(1).IfNull("x") // int where ref expected
	b.Label("x")
	b.Return()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "expected ref") {
		t.Errorf("err = %v", err)
	}
}

func TestVerifierWrongReturnKind(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Const(1).ReturnVal()
	if _, err := b.Build(); err == nil {
		t.Error("value return from void method accepted")
	}

	u2, m2 := testMethod(t, nil, classfile.KindInt)
	b2 := NewBuilder(u2, m2)
	b2.Return()
	if _, err := b2.Build(); err == nil {
		t.Error("void return from int method accepted")
	}
}

func TestVerifierInconsistentMerge(t *testing.T) {
	u, m := testMethod(t, []classfile.Kind{classfile.KindInt}, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.BindArg(0, "x")
	// One path pushes an int, the other a ref, merging at "join".
	b.Load("x").Const(0).If(OpIfEQ, "refpath")
	b.Const(1)
	b.Goto("join")
	b.Label("refpath")
	b.Null()
	b.Label("join")
	b.Pop()
	b.Return()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "inconsistent stack") {
		t.Errorf("err = %v", err)
	}
}

func TestVerifierUnreachableCode(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Return()
	b.Const(1).Pop() // unreachable
	b.Return()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("err = %v", err)
	}
}

func TestVerifierFallOffEnd(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	b.Const(1).Pop()
	if _, err := b.Build(); err == nil {
		t.Error("falling off the end accepted")
	}
}

func TestVerifierEmptyBody(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindVoid)
	b := NewBuilder(u, m)
	if _, err := b.Build(); err == nil {
		t.Error("empty body accepted")
	}
}

func TestFieldAndCallTyping(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	f := u.AddField(c, "next", classfile.KindRef)
	callee := u.AddMethod(c, "callee", false, []classfile.Kind{classfile.KindInt}, classfile.KindRef)
	bDummy := NewBuilder(u, callee)
	bDummy.BindArg(0, "x")
	bDummy.Null().ReturnVal()
	if _, err := bDummy.Build(); err != nil {
		t.Fatal(err)
	}

	m := u.AddMethod(c, "m", false, []classfile.Kind{classfile.KindRef}, classfile.KindRef)
	b := NewBuilder(u, m)
	b.BindArg(0, "o")
	b.Load("o").GetField(f) // pushes ref
	b.Const(5).InvokeStatic(callee).Pop()
	b.ReturnVal()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}

	// Calling with a ref where an int parameter is expected must fail.
	m2 := u.AddMethod(c, "m2", false, nil, classfile.KindVoid)
	b2 := NewBuilder(u, m2)
	b2.Null().InvokeStatic(callee).Pop().Return()
	if _, err := b2.Build(); err == nil {
		t.Error("ref passed for int parameter accepted")
	}
}

func TestStackInRecording(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindInt)
	b := NewBuilder(u, m)
	b.Const(1).Const(2).Add().ReturnVal()
	code, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(code.StackIn[0]) != 0 {
		t.Error("entry stack not empty")
	}
	if len(code.StackIn[2]) != 2 || code.StackIn[2][0] != classfile.KindInt {
		t.Errorf("StackIn before add = %v", code.StackIn[2])
	}
}

func TestDisassemble(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindInt)
	b := NewBuilder(u, m)
	b.Const(7).ReturnVal()
	code, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dis := code.Disassemble()
	if !strings.Contains(dis, "const 7") || !strings.Contains(dis, "returnval") {
		t.Errorf("disassembly:\n%s", dis)
	}
}

func TestDupSwapSemantics(t *testing.T) {
	u, m := testMethod(t, nil, classfile.KindInt)
	b := NewBuilder(u, m)
	b.Const(1).Const(2).Swap().Sub() // 2 - 1
	b.Dup().Add().ReturnVal()        // (2-1)+(2-1)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}
