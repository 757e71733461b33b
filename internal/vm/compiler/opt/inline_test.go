package opt_test

import (
	"testing"

	"hpmvm/internal/gc/genms"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/compiler/opt"
	"hpmvm/internal/vm/runtime"
	"hpmvm/internal/vm/vmtest"
)

// TestInlineFreshLocalsPerIteration is the regression test for the
// stale-locals inlining bug: a callee that relies on zero-initialized
// locals must see fresh zeros every time the (inlined) call site
// re-executes inside a loop.
func TestInlineFreshLocalsPerIteration(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	// countTo(n): i starts at zero (implicitly), counts to n.
	countTo := u.AddMethod(c, "countTo", false, []classfile.Kind{kInt}, kInt)
	cb := bytecode.NewBuilder(u, countTo)
	cb.BindArg(0, "n")
	cb.Local("i", kInt)
	cb.Label("loop")
	cb.Load("i").Load("n").If(bytecode.OpIfGE, "done")
	cb.Inc("i", 1)
	cb.Goto("loop")
	cb.Label("done")
	cb.Load("i").ReturnVal()
	cb.MustBuild()

	main := u.AddMethod(c, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("k", kInt)
	b.Local("sum", kInt)
	b.Label("loop")
	b.Load("k").Const(5).If(bytecode.OpIfGE, "done")
	b.Load("sum").Const(3).InvokeStatic(countTo).Add().Store("sum")
	b.Inc("k", 1)
	b.Goto("loop")
	b.Label("done")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	got, _, err := vmtest.Run(u, main, vmtest.Options{Plan: vmtest.AllOpt(u, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 15 { // 5 iterations x countTo(3)=3
		t.Fatalf("sum = %d, want 15 (stale inlined locals?)", got[0])
	}
}

func TestInlinePreservesNullCheckOnDevirtualizedReceiver(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	val := u.AddMethod(c, "val", true, []classfile.Kind{kRef}, kInt)
	vb := bytecode.NewBuilder(u, val)
	vb.BindArg(0, "this")
	vb.Const(7).ReturnVal()
	vb.MustBuild()

	main := u.AddMethod(c, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("o", kRef)
	b.Load("o").InvokeVirtual(val).Result() // o is null
	b.Return()
	b.MustBuild()
	u.Layout()

	_, vm, err := vmtest.Run(u, main, vmtest.Options{Plan: vmtest.AllOpt(u, 2)})
	if err == nil || vm.Failure() == nil {
		t.Fatal("devirtualized+inlined call on null receiver did not trap")
	}
}

func TestInlineSkipsPolymorphicCalls(t *testing.T) {
	u := classfile.NewUniverse()
	a := u.DefineClass("A", nil)
	val := u.AddMethod(a, "val", true, []classfile.Kind{kRef}, kInt)
	vb := bytecode.NewBuilder(u, val)
	vb.Const(1).ReturnVal()
	vb.MustBuild()
	bcl := u.DefineClass("B", a)
	valB := u.AddMethod(bcl, "val", true, []classfile.Kind{kRef}, kInt)
	vb2 := bytecode.NewBuilder(u, valB)
	vb2.Const(2).ReturnVal()
	vb2.MustBuild()

	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("o", kRef)
	b.New(bcl).Store("o")
	b.Load("o").InvokeVirtual(val).Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	// The slot is polymorphic; inlining must keep the dispatch so the
	// override is honored.
	code := main.Code.(*bytecode.Code)
	inlined, err := opt.InlineCalls(u, code)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range inlined.Instrs {
		if in.Op == bytecode.OpInvokeVirtual {
			found = true
		}
	}
	if !found {
		t.Fatal("polymorphic virtual call was devirtualized")
	}
	got, _, err := vmtest.Run(u, main, vmtest.Options{Plan: vmtest.AllOpt(u, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("dispatch = %d, want 2", got[0])
	}
}

func TestInlineSkipsRecursion(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	fib := u.AddMethod(c, "fib", false, []classfile.Kind{kInt}, kInt)
	fb := bytecode.NewBuilder(u, fib)
	fb.BindArg(0, "n")
	fb.Load("n").Const(2).If(bytecode.OpIfGE, "rec")
	fb.Load("n").ReturnVal()
	fb.Label("rec")
	fb.Load("n").Const(1).Sub().InvokeStatic(fib)
	fb.Load("n").Const(2).Sub().InvokeStatic(fib)
	fb.Add().ReturnVal()
	fb.MustBuild()
	u.Layout()

	code := fib.Code.(*bytecode.Code)
	inlined, err := opt.InlineCalls(u, code)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, in := range inlined.Instrs {
		if in.Op == bytecode.OpInvokeStatic {
			calls++
		}
	}
	if calls != 2 {
		t.Fatalf("self-recursive calls changed: %d", calls)
	}
}

func TestInlineGrowthBudget(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	// A 40-bytecode helper.
	helper := u.AddMethod(c, "helper", false, []classfile.Kind{kInt}, kInt)
	hb := bytecode.NewBuilder(u, helper)
	hb.BindArg(0, "x")
	hb.Load("x")
	for i := 0; i < 18; i++ {
		hb.Const(1).Add()
	}
	hb.ReturnVal()
	hb.MustBuild()

	main := u.AddMethod(c, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("s", kInt)
	for i := 0; i < 30; i++ {
		b.Load("s").Const(int64(i)).InvokeStatic(helper).Add().Store("s")
	}
	b.Load("s").Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	code := main.Code.(*bytecode.Code)
	inlined, err := opt.InlineCalls(u, code)
	if err != nil {
		t.Fatal(err)
	}
	if grow := len(inlined.Instrs) - len(code.Instrs); grow > opt.MaxInlineGrowth {
		t.Fatalf("growth %d exceeds budget %d", grow, opt.MaxInlineGrowth)
	}
	// Not every call site fits the budget; some must remain.
	remaining := 0
	for _, in := range inlined.Instrs {
		if in.Op == bytecode.OpInvokeStatic {
			remaining++
		}
	}
	if remaining == 0 {
		t.Error("growth budget did not limit inlining")
	}
	// Semantics preserved either way.
	got, _, err := vmtest.Run(u, main, vmtest.Options{Plan: vmtest.AllOpt(u, 2)})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(30*18) + 29*30/2
	if got[0] != want {
		t.Fatalf("sum = %d, want %d", got[0], want)
	}
}

func TestInlineRefConstRemap(t *testing.T) {
	u := classfile.NewUniverse()
	str := u.DefineClass("Str", nil)
	fv := u.AddField(str, "v", kInt)
	c := u.DefineClass("C", nil)

	// Callee reads a ref constant's field.
	callee := u.AddMethod(c, "readConst", false, nil, kInt)
	cb := bytecode.NewBuilder(u, callee)
	h := cb.RefConst()
	cb.LoadConstRef(h).GetField(fv).ReturnVal()
	cb.MustBuild()

	main := u.AddMethod(c, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	h2 := b.RefConst()
	b.LoadConstRef(h2).GetField(fv).Result()
	b.InvokeStatic(callee).Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	// Materialize: main's const holds 11, callee's holds 22.
	materialize := func(vm *runtime.VM) {
		mainCode := main.Code.(*bytecode.Code)
		calleeCode := callee.Code.(*bytecode.Code)
		o1 := vm.NewImmortalObject(str)
		vm.RawSetField(o1, fv, 11)
		o2 := vm.NewImmortalObject(str)
		vm.RawSetField(o2, fv, 22)
		mainCode.RefConstAddrs[0] = o1
		calleeCode.RefConstAddrs[0] = o2
	}

	// Run through core-free plumbing: vmtest has no materialize hook,
	// so drive the runtime directly.
	for _, level := range []int{0, 2} {
		vm := newBareVM(t, u)
		materialize(vm)
		var plan runtime.CompilePlan
		if level > 0 {
			plan = vmtest.AllOpt(u, level)
		}
		vm.BuildDispatch()
		if err := vm.CompileAll(plan); err != nil {
			t.Fatal(err)
		}
		if err := vm.Start(main); err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		got := vm.Results()
		if len(got) != 2 || got[0] != 11 || got[1] != 22 {
			t.Fatalf("level %d: results = %v, want [11 22]", level, got)
		}
	}
}

// newBareVM builds a VM with a GenMS collector for tests that need
// manual boot control.
func newBareVM(t *testing.T, u *classfile.Universe) *runtime.VM {
	t.Helper()
	vm := runtime.New(u, cache.DefaultP4())
	genms.New(vm, 16<<20)
	return vm
}
