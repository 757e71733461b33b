package genms_test

import (
	"strings"
	"testing"

	"hpmvm/internal/gc/genms"
	"hpmvm/internal/gc/heap"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
	"hpmvm/internal/vm/vmtest"
)

const (
	kInt  = classfile.KindInt
	kRef  = classfile.KindRef
	kVoid = classfile.KindVoid
)

// treeProgram builds a complete binary tree of the given depth whose
// leaves hold sequential values, churns garbage to force collections,
// then emits the tree sum. Sum of 2^depth leaves holding 1..2^depth.
func treeProgram(u *classfile.Universe, depth, churn int64) (*classfile.Method, int64) {
	node := u.DefineClass("Node", nil)
	fl := u.AddField(node, "l", kRef)
	fr := u.AddField(node, "r", kRef)
	fv := u.AddField(node, "v", kInt)

	// build(depth, rnd) — rnd is a value counter threaded through via a
	// one-element int holder to keep the bytecode simple: instead we
	// use a static counter object.
	counter := u.DefineClass("Counter", nil)
	fc := u.AddField(counter, "n", kInt)

	build := u.AddMethod(node, "build", false, []classfile.Kind{kInt, kRef}, kRef)
	b := bytecode.NewBuilder(u, build)
	b.BindArg(0, "d").BindArg(1, "ctr")
	b.Local("n", kRef)
	b.New(node).Store("n")
	b.Load("d").Const(0).If(bytecode.OpIfGT, "inner")
	b.Load("ctr").Load("ctr").GetField(fc).Const(1).Add().PutField(fc)
	b.Load("n").Load("ctr").GetField(fc).PutField(fv)
	b.Load("n").ReturnVal()
	b.Label("inner")
	b.Load("n").Load("d").Const(1).Sub().Load("ctr").InvokeStatic(build).PutField(fl)
	b.Load("n").Load("d").Const(1).Sub().Load("ctr").InvokeStatic(build).PutField(fr)
	b.Load("n").ReturnVal()
	b.MustBuild()

	sum := u.AddMethod(node, "sum", false, []classfile.Kind{kRef}, kInt)
	b = bytecode.NewBuilder(u, sum)
	b.BindArg(0, "n")
	b.Load("n").GetField(fl).IfNonNull("inner")
	b.Load("n").GetField(fv).ReturnVal()
	b.Label("inner")
	b.Load("n").GetField(fl).InvokeStatic(sum)
	b.Load("n").GetField(fr).InvokeStatic(sum)
	b.Add().ReturnVal()
	b.MustBuild()

	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b = bytecode.NewBuilder(u, main)
	b.Local("root", kRef)
	b.Local("ctr", kRef)
	b.Local("i", kInt)
	b.New(counter).Store("ctr")
	b.Const(depth).Load("ctr").InvokeStatic(build).Store("root")
	b.Label("churn")
	b.Load("i").Const(churn).If(bytecode.OpIfGE, "done")
	b.New(node).Pop()
	b.Inc("i", 1)
	b.Goto("churn")
	b.Label("done")
	b.Load("root").InvokeStatic(sum).Result()
	b.Return()
	b.MustBuild()

	leaves := int64(1) << uint(depth)
	return main, leaves * (leaves + 1) / 2
}

func TestObjectGraphSurvivesCollections(t *testing.T) {
	u := classfile.NewUniverse()
	main, want := treeProgram(u, 10, 200_000) // ~2K leaves, ~6.4MB churn
	u.Layout()
	got, vm, err := vmtest.Run(u, main, vmtest.Options{Heap: 4 << 20, Plan: vmtest.AllOpt(u, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want {
		t.Fatalf("tree sum = %d, want %d", got[0], want)
	}
	minor, _ := vm.Collector.Collections()
	if minor < 2 {
		t.Errorf("minor GCs = %d, want several", minor)
	}
}

func TestMajorGCFreesGarbage(t *testing.T) {
	// Repeatedly build trees, dropping the old one: without major GCs
	// the mature space would exceed the budget.
	u := classfile.NewUniverse()
	node := u.DefineClass("Node", nil)
	fl := u.AddField(node, "l", kRef)
	u.AddField(node, "v", kInt)
	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("head", kRef)
	b.Local("i", kInt)
	b.Local("j", kInt)
	b.Local("round", kInt)
	b.Label("rounds")
	b.Load("round").Const(8).If(bytecode.OpIfGE, "done")
	// Build a ~2 MB list (larger than the nursery) so each round
	// promotes into the mature space, then drop it.
	b.Null().Store("head")
	b.Const(0).Store("i")
	b.Label("mk")
	b.Load("i").Const(60_000).If(bytecode.OpIfGE, "next")
	b.New(node).Dup().Load("head").PutField(fl).Store("head")
	b.Inc("i", 1)
	b.Goto("mk")
	b.Label("next")
	b.Inc("round", 1)
	b.Goto("rounds")
	b.Label("done")
	b.Const(1).Result()
	b.Return()
	b.MustBuild()
	u.Layout()
	// 8 rounds x ~1MB live; a 6 MB heap only survives if majors free
	// the dropped lists.
	_, vm, err := vmtest.Run(u, main, vmtest.Options{Heap: 6 << 20, Plan: vmtest.AllOpt(u, 2)})
	if err != nil {
		t.Fatal(err)
	}
	_, major := vm.Collector.Collections()
	if major == 0 {
		t.Error("expected major collections")
	}
}

func TestOutOfMemory(t *testing.T) {
	u := classfile.NewUniverse()
	main, _ := treeProgram(u, 15, 0) // ~2 MB of live tree cannot fit in 1 MB
	u.Layout()
	_, vm, err := vmtest.Run(u, main, vmtest.Options{Heap: 1 << 20})
	if err == nil {
		t.Fatal("expected OOM")
	}
	if vm.Failure() == nil || !strings.Contains(vm.Failure().Error(), "out of memory") {
		t.Errorf("failure = %v", vm.Failure())
	}
}

func TestWriteBarrierKeepsNurseryChildAlive(t *testing.T) {
	// An old object points to a new nursery object with no stack
	// reference; only the remembered set can keep it alive.
	u := classfile.NewUniverse()
	node := u.DefineClass("Node", nil)
	fref := u.AddField(node, "ref", kRef)
	fv := u.AddField(node, "v", kInt)
	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("old", kRef)
	b.Local("i", kInt)
	b.New(node).Store("old")
	// Promote "old" by churning past the nursery.
	b.Label("churn1")
	b.Load("i").Const(60_000).If(bytecode.OpIfGE, "link")
	b.New(node).Pop()
	b.Inc("i", 1)
	b.Goto("churn1")
	b.Label("link")
	// old (now mature) gets a fresh nursery child; no other reference.
	b.New(node).Const(777).PutField(fv) // warm-up unrelated store
	b.Load("old").New(node).PutField(fref)
	b.Load("old").GetField(fref).Const(42).PutField(fv)
	// Churn again: the child survives only through the remembered set.
	b.Const(0).Store("i")
	b.Label("churn2")
	b.Load("i").Const(60_000).If(bytecode.OpIfGE, "check")
	b.New(node).Pop()
	b.Inc("i", 1)
	b.Goto("churn2")
	b.Label("check")
	b.Load("old").GetField(fref).GetField(fv).Result()
	b.Return()
	b.MustBuild()
	u.Layout()
	got, vm, err := vmtest.Run(u, main, vmtest.Options{Heap: 3 << 20, Plan: vmtest.AllOpt(u, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("child value = %d, want 42", got[0])
	}
	minor, _ := vm.Collector.Collections()
	if minor < 2 {
		t.Errorf("minor GCs = %d; the barrier path was not exercised", minor)
	}
}

// alwaysAdvisor co-allocates the given field for every instance.
type alwaysAdvisor struct {
	field *classfile.Field
	gap   uint64
	count int
}

func (a *alwaysAdvisor) Candidates(cl *classfile.Class) []genms.Candidate {
	if cl == a.field.Class {
		return []genms.Candidate{{Field: a.field, Gap: a.gap}}
	}
	return nil
}

func (a *alwaysAdvisor) CoallocationPerformed(f *classfile.Field, gap uint64) { a.count++ }

// pairProgram allocates parents each holding a fresh child, with churn
// to force promotion, and checks child values at the end.
func pairProgram(u *classfile.Universe) (*classfile.Method, *classfile.Field, *classfile.Class, *classfile.Class) {
	parent := u.DefineClass("Parent", nil)
	fchild := u.AddField(parent, "child", kRef)
	u.AddField(parent, "pad", kInt)
	child := u.DefineClass("Child", nil)
	fv := u.AddField(child, "v", kInt)

	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("keep", kRef) // ref[] of parents
	b.Local("i", kInt)
	b.Local("p", kRef)
	b.Local("sum", kInt)
	b.Const(2000).NewArray(u.RefArray).Store("keep")
	b.Label("mk")
	b.Load("i").Const(2000).If(bytecode.OpIfGE, "churn")
	// child first, then parent (allocation order of "new Parent(new Child())")
	b.New(child).Store("p")
	b.Load("p").Load("i").PutField(fv)
	b.New(parent).Dup().Load("p").PutField(fchild).Store("p")
	b.Load("keep").Load("i").Load("p").AStore(kRef)
	b.Inc("i", 1)
	b.Goto("mk")
	b.Label("churn")
	b.Const(0).Store("i")
	b.Label("c2")
	b.Load("i").Const(80_000).If(bytecode.OpIfGE, "verify")
	b.New(child).Pop()
	b.Inc("i", 1)
	b.Goto("c2")
	b.Label("verify")
	b.Const(0).Store("i")
	b.Label("v2")
	b.Load("i").Const(2000).If(bytecode.OpIfGE, "emit")
	b.Load("sum").Load("keep").Load("i").ALoad(kRef).GetField(fchild).GetField(fv).Add().Store("sum")
	b.Inc("i", 1)
	b.Goto("v2")
	b.Label("emit")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	return main, fchild, parent, child
}

func runPairProgram(t *testing.T, gap uint64) (*runtime.VM, *genms.Collector, *alwaysAdvisor, *classfile.Class) {
	t.Helper()
	u := classfile.NewUniverse()
	main, fchild, parent, _ := pairProgram(u)
	u.Layout()

	vm := runtime.New(u, cache.DefaultP4())
	col := genms.New(vm, 4<<20)
	adv := &alwaysAdvisor{field: fchild, gap: gap}
	col.SetAdvisor(adv)
	vm.BuildDispatch()
	if err := vm.CompileAll(vmtest.AllOpt(u, 2)); err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(main); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	want := int64(2000 * 1999 / 2)
	if got := vm.Results(); len(got) != 1 || got[0] != want {
		t.Fatalf("results = %v, want [%d]", got, want)
	}
	return vm, col, adv, parent
}

func TestCoallocationAdjacency(t *testing.T) {
	vm, col, adv, parent := runPairProgram(t, 0)
	pairs := col.Pairs()
	if len(pairs) == 0 || adv.count == 0 {
		t.Fatalf("no co-allocation happened (pairs=%d advisor=%d)", len(pairs), adv.count)
	}
	hier := vm.Hier
	for p, c := range pairs {
		if vm.ClassOf(p) != parent {
			t.Fatalf("pair parent at %#x has class %s", p, vm.ClassOf(p).Name)
		}
		if c != p+vm.SizeOf(p) {
			t.Fatalf("child at %#x not adjacent to parent %#x (size %d)", c, p, vm.SizeOf(p))
		}
		if !hier.SameLine(p, c) {
			t.Fatalf("pair %#x/%#x not on one cache line", p, c)
		}
		if co, gapped := col.ClassifyAddr(c + 8); !co || gapped {
			t.Fatalf("ClassifyAddr(%#x) = %v,%v", c+8, co, gapped)
		}
	}
	if co, _ := col.ClassifyAddr(0x9999_0000); co {
		t.Error("ClassifyAddr matched an unrelated address")
	}
	if st := col.Stats(); st.CoallocPairs != uint64(adv.count) {
		t.Errorf("stats pairs %d != advisor count %d", st.CoallocPairs, adv.count)
	}
}

func TestCoallocationGapPlacement(t *testing.T) {
	vm, col, _, _ := runPairProgram(t, 128)
	pairs := col.Pairs()
	if len(pairs) == 0 {
		t.Fatal("no gapped pairs")
	}
	for p, c := range pairs {
		if c != p+vm.SizeOf(p)+128 {
			t.Fatalf("gapped child at %#x, parent %#x size %d", c, p, vm.SizeOf(p))
		}
		if vm.Hier.SameLine(p, c) {
			t.Fatalf("gapped pair %#x/%#x still shares a line", p, c)
		}
		if co, gapped := col.ClassifyAddr(c); !co || !gapped {
			t.Fatalf("ClassifyAddr(%#x) = %v,%v, want gapped", c, co, gapped)
		}
	}
}

func TestNurseryResizesWithHeapPressure(t *testing.T) {
	u := classfile.NewUniverse()
	main, want := treeProgram(u, 9, 100_000)
	u.Layout()
	got, vm, err := vmtest.Run(u, main, vmtest.Options{Heap: 2 << 20, Plan: vmtest.AllOpt(u, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want {
		t.Fatalf("sum = %d, want %d", got[0], want)
	}
	col := vm.Collector.(*genms.Collector)
	if col.Nursery.SoftSize() >= 1<<20 {
		t.Errorf("nursery did not shrink under pressure: %d", col.Nursery.SoftSize())
	}
	if col.MatureUsedBytes() == 0 {
		t.Error("nothing promoted")
	}
}

func TestLargeObjectsGoToLOS(t *testing.T) {
	u := classfile.NewUniverse()
	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("a", kRef)
	b.Const(4096).NewArray(u.IntArray).Store("a") // 32 KB + header
	b.Load("a").Const(100).Const(7).AStore(kInt)
	b.Load("a").Const(100).ALoad(kInt).Result()
	b.Return()
	b.MustBuild()
	u.Layout()
	got, vm, err := vmtest.Run(u, main, vmtest.Options{Heap: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("LOS array element = %d", got[0])
	}
	// The 32 KB array is above the free-list size classes, so the
	// collector's large-object space holds it, inside the LOS region.
	los := vm.Collector.(*genms.Collector).LOS
	if los.Used() < 32*1024 {
		t.Errorf("LOS holds %d bytes, want at least 32 KB", los.Used())
	}
	objs := los.Objects()
	if len(objs) != 1 || !heap.InLOS(objs[0]) {
		t.Errorf("LOS objects = %#x, want one address in the LOS region", objs)
	}
}

func TestStoreIntoImmortalPanics(t *testing.T) {
	// Immortal objects are immutable after setup (DESIGN.md §8); a
	// compiled reference store into one must fail fast instead of
	// silently creating an edge the collectors never trace.
	u := classfile.NewUniverse()
	str := u.DefineClass("Konst", nil)
	fref := u.AddField(str, "ref", kRef)
	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	bh := b.RefConst()
	b.LoadConstRef(bh).New(str).PutField(fref)
	b.Return()
	b.MustBuild()
	u.Layout()

	vm := runtime.New(u, cache.DefaultP4())
	genms.New(vm, 8<<20)
	code := main.Code.(*bytecode.Code)
	code.RefConstAddrs[0] = vm.NewImmortalObject(str)
	vm.BuildDispatch()
	if err := vm.CompileAll(nil); err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(main); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("store into immortal object did not panic")
		}
	}()
	vm.Run(1_000_000)
}

// rankedAdvisor returns a fixed candidate list (hottest first).
type rankedAdvisor struct {
	cands []genms.Candidate
	done  map[string]int
}

func (r *rankedAdvisor) Candidates(cl *classfile.Class) []genms.Candidate {
	var out []genms.Candidate
	for _, c := range r.cands {
		if c.Field.Class == cl {
			out = append(out, c)
		}
	}
	return out
}
func (r *rankedAdvisor) CoallocationPerformed(f *classfile.Field, gap uint64) {
	if r.done == nil {
		r.done = map[string]int{}
	}
	r.done[f.Name]++
}

func TestRankedFallbackUsesSecondCandidate(t *testing.T) {
	// Parent.big references an over-sized array (ineligible for a
	// shared cell); Parent.small references a small child. The ranked
	// advisor lists big first; the collector must fall back to small
	// (§5.4's sorted per-class candidate list).
	u := classfile.NewUniverse()
	parent := u.DefineClass("RParent", nil)
	fBig := u.AddField(parent, "big", kRef)
	fSmall := u.AddField(parent, "small", kRef)
	child := u.DefineClass("RChild", nil)
	u.AddField(child, "v", kInt)

	mainCl := u.DefineClass("Main", nil)
	main := u.AddMethod(mainCl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("keep", kRef)
	b.Local("i", kInt)
	b.Local("p", kRef)
	b.Const(800).NewArray(u.RefArray).Store("keep")
	b.Label("mk")
	b.Load("i").Const(800).If(bytecode.OpIfGE, "churn")
	b.New(parent).Store("p")
	b.Load("p").Const(600).NewArray(u.IntArray).PutField(fBig) // 4816 B > max cell
	b.Load("p").New(child).PutField(fSmall)
	b.Load("keep").Load("i").Load("p").AStore(kRef)
	b.Inc("i", 1)
	b.Goto("mk")
	b.Label("churn")
	b.Const(0).Store("i")
	b.Label("c2")
	b.Load("i").Const(80_000).If(bytecode.OpIfGE, "done")
	b.New(child).Pop()
	b.Inc("i", 1)
	b.Goto("c2")
	b.Label("done")
	b.Const(1).Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	vm := runtime.New(u, cache.DefaultP4())
	col := genms.New(vm, 8<<20)
	adv := &rankedAdvisor{cands: []genms.Candidate{{Field: fBig}, {Field: fSmall}}}
	col.SetAdvisor(adv)
	vm.BuildDispatch()
	if err := vm.CompileAll(vmtest.AllOpt(u, 2)); err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(main); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if adv.done["big"] != 0 {
		t.Errorf("over-sized candidate was paired %d times", adv.done["big"])
	}
	if adv.done["small"] == 0 {
		t.Fatal("fallback candidate never paired")
	}
	if col.Stats().CoallocPairs == 0 {
		t.Fatal("no pairs placed")
	}
}
