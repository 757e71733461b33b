package core_test

import (
	"errors"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// buildListProgram builds a program that allocates a linked list of n
// nodes (forcing nursery collections at small heaps), then walks it
// twice: summing values and counting nodes via a virtual method.
func buildListProgram(t testing.TB, n int64) (*classfile.Universe, *classfile.Method) {
	t.Helper()
	u := classfile.NewUniverse()
	node := u.DefineClass("Node", nil)
	fNext := u.AddField(node, "next", classfile.KindRef)
	fVal := u.AddField(node, "val", classfile.KindInt)

	getVal := u.AddMethod(node, "getVal", true, []classfile.Kind{classfile.KindRef}, classfile.KindInt)
	gb := bytecode.NewBuilder(u, getVal)
	gb.BindArg(0, "this")
	gb.Load("this").GetField(fVal).ReturnVal()
	if _, err := gb.Build(); err != nil {
		t.Fatal(err)
	}

	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, classfile.KindVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("head", classfile.KindRef)
	b.Local("i", classfile.KindInt)
	b.Local("p", classfile.KindRef)
	b.Local("sum", classfile.KindInt)
	b.Local("tmp", classfile.KindRef)

	// head = null; i = 0
	b.Null().Store("head")
	b.Const(0).Store("i")
	// build loop
	b.Label("build")
	b.Load("i").Const(n).If(bytecode.OpIfGE, "built")
	// One short-lived node per iteration keeps the nursery churning.
	b.New(node).Pop()
	b.New(node).Store("tmp")
	b.Load("tmp").Load("i").PutField(fVal)
	b.Load("tmp").Load("head").PutField(fNext)
	b.Load("tmp").Store("head")
	b.Inc("i", 1)
	b.Goto("build")
	b.Label("built")
	// sum loop (direct field access)
	b.Const(0).Store("sum")
	b.Load("head").Store("p")
	b.Label("walk")
	b.Load("p").IfNull("done")
	b.Load("sum").Load("p").GetField(fVal).Add().Store("sum")
	b.Load("p").GetField(fNext).Store("p")
	b.Goto("walk")
	b.Label("done")
	b.Load("sum").Result()
	// count loop (virtual calls)
	b.Const(0).Store("sum")
	b.Load("head").Store("p")
	b.Label("walk2")
	b.Load("p").IfNull("done2")
	b.Load("sum").Load("p").InvokeVirtual(getVal).Add().Store("sum")
	b.Load("p").GetField(fNext).Store("p")
	b.Goto("walk2")
	b.Label("done2")
	b.Load("sum").Result()
	b.Return()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}

	u.Layout()
	return u, main
}

func runList(t *testing.T, n int64, opts core.Options, plan func(u *classfile.Universe) runtime.CompilePlan) *core.System {
	t.Helper()
	u, main := buildListProgram(t, n)
	sys, err := core.NewSystemOpts(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	var p runtime.CompilePlan
	if plan != nil {
		p = plan(u)
	}
	if err := sys.Boot(p, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(main, 500_000_000); err != nil {
		t.Fatal(err)
	}
	want := n * (n - 1) / 2
	got := sys.VM.Results()
	if len(got) != 2 || got[0] != want || got[1] != want {
		t.Fatalf("results = %v, want [%d %d]", got, want, want)
	}
	return sys
}

func allOpt(level int) func(u *classfile.Universe) runtime.CompilePlan {
	return func(u *classfile.Universe) runtime.CompilePlan {
		plan := make(runtime.CompilePlan)
		for _, m := range u.Methods() {
			if m.Code != nil {
				plan[m.ID] = level
			}
		}
		return plan
	}
}

func TestSmokeBaselineNoGC(t *testing.T) {
	runList(t, 1000, core.Options{HeapLimit: 32 << 20}, nil)
}

func TestSmokeOptNoGC(t *testing.T) {
	runList(t, 1000, core.Options{HeapLimit: 32 << 20}, allOpt(2))
}

func TestSmokeBaselineWithGC(t *testing.T) {
	// 40k nodes * 32 bytes = 1.25 MB churn in a small heap forces
	// minor collections while the list is live.
	sys := runList(t, 100_000, core.Options{HeapLimit: 8 << 20}, nil)
	minor, _ := sys.GCStats()
	if minor == 0 {
		t.Fatal("expected at least one minor GC")
	}
}

func TestSmokeOptWithGC(t *testing.T) {
	sys := runList(t, 100_000, core.Options{HeapLimit: 8 << 20}, allOpt(2))
	minor, _ := sys.GCStats()
	if minor == 0 {
		t.Fatal("expected at least one minor GC")
	}
}

func TestSmokeGenCopyWithGC(t *testing.T) {
	sys := runList(t, 100_000, core.Options{Collector: core.GenCopy, HeapLimit: 12 << 20}, allOpt(2))
	minor, _ := sys.GCStats()
	if minor == 0 {
		t.Fatal("expected at least one minor GC")
	}
}

func TestSmokeMonitoring(t *testing.T) {
	sys := runList(t, 60_000, core.Options{
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 1000,
	}, allOpt(2))
	if sys.Unit.Stats().EventsSeen == 0 {
		t.Fatal("expected hardware events")
	}
	if sys.Unit.Stats().SamplesTaken == 0 {
		t.Fatal("expected PEBS samples")
	}
	if sys.Monitor.Stats().SamplesDecoded == 0 {
		t.Fatal("expected decoded samples")
	}
}

func TestSmokeCoallocation(t *testing.T) {
	sys := runList(t, 60_000, core.Options{
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 500,
		Optimizations:    coallocEntry,
	}, allOpt(2))
	t.Logf("coalloc pairs: %d", sys.CoallocPairs())
	t.Logf("%s", sys.Monitor.Report(5))
}

func TestAdaptiveAOSWithMonitoring(t *testing.T) {
	// AOS recording mode plus HPM sampling: recompilation installs new
	// bodies mid-run while samples keep arriving (late samples resolve
	// through obsolete bodies' retained maps, §4.2).
	u, main := buildListProgram(t, 60_000)
	sys, err := core.NewSystemOpts(u, core.Options{
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 1000,
		Adaptive:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(nil, nil); err != nil { // baseline everywhere; AOS recompiles
		t.Fatal(err)
	}
	if err := sys.Run(main, 0); err != nil {
		t.Fatal(err)
	}
	want := int64(60_000) * (60_000 - 1) / 2
	got := sys.VM.Results()
	if len(got) != 2 || got[0] != want || got[1] != want {
		t.Fatalf("results = %v, want [%d %d]", got, want, want)
	}
	if sys.AOS.Recompilations() == 0 {
		t.Error("AOS never recompiled")
	}
	if sys.Monitor.Stats().SamplesDecoded == 0 {
		t.Error("no samples decoded during adaptive run")
	}
	// The plan must be replayable.
	plan := sys.AOS.Plan()
	if len(plan) == 0 {
		t.Fatal("empty recorded plan")
	}
	u2, main2 := buildListProgram(t, 60_000)
	sys2, err := core.NewSystemOpts(u2, core.Options{HeapLimit: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.Boot(plan, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Run(main2, 0); err != nil {
		t.Fatal(err)
	}
	if sys2.VM.Results()[0] != want {
		t.Error("replay diverged")
	}
}

func TestGenCopyRejectsCoalloc(t *testing.T) {
	// Co-allocation requires GenMS; requesting it with GenCopy was
	// once silently ignored and is now a validation error.
	u, _ := buildListProgram(t, 1_000)
	_, err := core.NewSystemOpts(u, core.Options{
		Collector:        core.GenCopy,
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
		Optimizations:    coallocEntry,
	})
	if !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("NewSystemOpts(GenCopy+Coalloc) err = %v, want ErrBadOptions", err)
	}
}
