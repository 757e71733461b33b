package aos_test

import (
	"testing"

	"hpmvm/internal/gc/genms"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/vm/aos"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// hotProgram runs a hot inner method many times from main.
func hotProgram(u *classfile.Universe) (*classfile.Method, *classfile.Method) {
	c := u.DefineClass("Hot", nil)
	inner := u.AddMethod(c, "inner", false, []classfile.Kind{classfile.KindInt}, classfile.KindInt)
	b := bytecode.NewBuilder(u, inner)
	b.BindArg(0, "x")
	b.Local("i", classfile.KindInt)
	b.Local("s", classfile.KindInt)
	b.Label("loop")
	b.Load("i").Const(200).If(bytecode.OpIfGE, "done")
	b.Load("s").Load("x").Add().Store("s")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("done")
	b.Load("s").ReturnVal()
	b.MustBuild()

	main := u.AddMethod(c, "main", false, nil, classfile.KindVoid)
	b = bytecode.NewBuilder(u, main)
	b.Local("i", classfile.KindInt)
	b.Local("acc", classfile.KindInt)
	b.Label("loop")
	b.Load("i").Const(3000).If(bytecode.OpIfGE, "done")
	b.Load("acc").Load("i").InvokeStatic(inner).Add().Store("acc")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("done")
	b.Load("acc").Result()
	b.Return()
	b.MustBuild()
	return main, inner
}

func TestAdaptiveRecompilation(t *testing.T) {
	u := classfile.NewUniverse()
	main, inner := hotProgram(u)
	u.Layout()

	vm := runtime.New(u, cache.DefaultP4())
	genms.New(vm, 16<<20)
	a := aos.New(vm)
	vm.BuildDispatch()
	if err := vm.CompileAll(nil); err != nil { // everything baseline
		t.Fatal(err)
	}
	baselineEntry := vm.MethodEntry(inner)
	a.Attach()
	if err := vm.Start(main); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	// 3000 * sum(0..199 of x) = 200*x per call... verify program result:
	// inner(x) = 200*x, acc = 200 * (3000*2999/2).
	want := int64(200) * (3000 * 2999 / 2)
	if got := vm.Results(); len(got) != 1 || got[0] != want {
		t.Fatalf("results = %v, want [%d]", got, want)
	}
	if a.Recompilations() == 0 {
		t.Fatal("hot method never recompiled")
	}
	if vm.MethodEntry(inner) == baselineEntry {
		t.Error("method entry not retargeted after recompilation")
	}
	plan := a.Plan()
	if plan[inner.ID] == 0 {
		t.Errorf("plan = %v, inner method missing", plan)
	}
	if a.CompileCycles() == 0 {
		t.Error("recompilation cost not charged")
	}
	if rep := a.Report(5); rep == "" {
		t.Error("empty report")
	}
}

func TestPlanReplayMatchesAdaptiveResults(t *testing.T) {
	// Record a plan adaptively, then replay it pseudo-adaptively (the
	// paper's measurement configuration) and compare program results.
	u1 := classfile.NewUniverse()
	main1, _ := hotProgram(u1)
	u1.Layout()
	vm1 := runtime.New(u1, cache.DefaultP4())
	genms.New(vm1, 16<<20)
	a := aos.New(vm1)
	vm1.BuildDispatch()
	if err := vm1.CompileAll(nil); err != nil {
		t.Fatal(err)
	}
	a.Attach()
	if err := vm1.Start(main1); err != nil {
		t.Fatal(err)
	}
	if err := vm1.Run(0); err != nil {
		t.Fatal(err)
	}
	recorded := a.Plan()

	// Replay: method IDs are deterministic across identical universes.
	u2 := classfile.NewUniverse()
	main2, _ := hotProgram(u2)
	u2.Layout()
	vm2 := runtime.New(u2, cache.DefaultP4())
	genms.New(vm2, 16<<20)
	vm2.BuildDispatch()
	if err := vm2.CompileAll(recorded); err != nil {
		t.Fatal(err)
	}
	if err := vm2.Start(main2); err != nil {
		t.Fatal(err)
	}
	if err := vm2.Run(0); err != nil {
		t.Fatal(err)
	}
	if vm1.Results()[0] != vm2.Results()[0] {
		t.Errorf("replay diverged: %d vs %d", vm1.Results()[0], vm2.Results()[0])
	}
	// The replayed run avoids mid-run compilation pauses, so it should
	// not be slower than the adaptive run.
	if vm2.Cycles() > vm1.Cycles() {
		t.Errorf("replay slower than adaptive: %d vs %d", vm2.Cycles(), vm1.Cycles())
	}
}
