package runtime_test

import (
	"strings"
	"testing"

	"hpmvm/internal/gc/genms"
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

func newVM(u *classfile.Universe) *runtime.VM {
	vm := runtime.New(u, cache.DefaultP4())
	genms.New(vm, 16<<20)
	return vm
}

func TestImmortalObjects(t *testing.T) {
	u := classfile.NewUniverse()
	str := u.DefineClass("String", nil)
	fval := u.AddField(str, "value", kRef)
	u.Layout()
	vm := newVM(u)

	s := vm.NewImmortalString(str, fval, "hей"[:3]) // raw bytes
	if vm.ClassOf(s) != str {
		t.Error("string class wrong")
	}
	arr := vm.RawGetField(s, fval)
	if vm.ClassOf(arr) != u.CharArray {
		t.Error("value not a char array")
	}
	if vm.ArrayLenOf(arr) != 3 {
		t.Errorf("length = %d", vm.ArrayLenOf(arr))
	}
	if got := vm.RawGetElem(arr, u.CharArray, 0); got != 'h' {
		t.Errorf("elem 0 = %d", got)
	}

	ia := vm.NewImmortalArray(u.IntArray, 4)
	vm.RawSetElem(ia, u.IntArray, 2, 0xDEAD)
	if vm.RawGetElem(ia, u.IntArray, 2) != 0xDEAD {
		t.Error("int array element")
	}
	if vm.SizeOf(ia) != classfile.HeaderSize+32 {
		t.Errorf("SizeOf = %d", vm.SizeOf(ia))
	}
}

func TestForwardingHelpers(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	u.AddField(c, "x", kInt)
	u.Layout()
	vm := newVM(u)
	obj := vm.NewImmortalObject(c)
	if _, fwd := vm.Forwarded(obj); fwd {
		t.Error("fresh object forwarded")
	}
	vm.SetForwarding(obj, 0x1234_5678)
	if to, fwd := vm.Forwarded(obj); !fwd || to != 0x1234_5678 {
		t.Errorf("Forwarded = %#x, %v", to, fwd)
	}
}

func TestCopyObject(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	f := u.AddField(c, "x", kInt)
	u.Layout()
	vm := newVM(u)
	src := vm.NewImmortalObject(c)
	vm.RawSetField(src, f, 99)
	dst := vm.Immortal.Alloc(c.InstanceSize)
	vm.CopyObject(dst, src, c.InstanceSize)
	if vm.RawGetField(dst, f) != 99 || vm.ClassOf(dst) != c {
		t.Error("copy incomplete")
	}
}

func TestFailureDiagnostics(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("Crash", nil)
	f := u.AddField(c, "v", kInt)
	m := u.AddMethod(c, "boom", false, nil, kVoid)
	b := bytecode.NewBuilder(u, m)
	b.Null().GetField(f).Result()
	b.Return()
	b.MustBuild()
	u.Layout()
	_, vm, err := vmtest.Run(u, m, vmtest.Options{})
	if err == nil {
		t.Fatal("expected failure")
	}
	msg := vm.Failure().Error()
	if !strings.Contains(msg, "null pointer") || !strings.Contains(msg, "Crash::boom") {
		t.Errorf("failure message lacks context: %q", msg)
	}
}

func TestRunBeforeStart(t *testing.T) {
	u := classfile.NewUniverse()
	u.Layout()
	vm := newVM(u)
	if err := vm.Run(1000); err == nil {
		t.Error("Run before Start succeeded")
	}
}

func TestEntryMustTakeNoArgs(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	m := u.AddMethod(c, "main", false, []classfile.Kind{kInt}, kVoid)
	b := bytecode.NewBuilder(u, m)
	b.Return()
	b.MustBuild()
	u.Layout()
	vm := newVM(u)
	vm.BuildDispatch()
	if err := vm.CompileAll(nil); err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(m); err == nil {
		t.Error("entry with arguments accepted")
	}
}

// countTicker fires every interval cycles and counts invocations.
type countTicker struct {
	deadline uint64
	interval uint64
	vm       *runtime.VM
	n        int
}

func (c *countTicker) Deadline() uint64 { return c.deadline }
func (c *countTicker) Tick() {
	c.n++
	c.deadline = c.vm.CPU.Cycles() + c.interval
}

func TestTickerScheduling(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	m := u.AddMethod(c, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, m)
	b.Local("i", kInt)
	b.Label("loop")
	b.Load("i").Const(200_000).If(bytecode.OpIfGE, "done")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("done")
	b.Return()
	b.MustBuild()
	u.Layout()

	vm := newVM(u)
	tick := &countTicker{interval: 50_000, vm: vm, deadline: 50_000}
	vm.AddTicker(tick)
	vm.BuildDispatch()
	if err := vm.CompileAll(nil); err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(m); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(0); err != nil {
		t.Fatal(err)
	}
	// The loop runs >1.2M cycles; the ticker should have fired roughly
	// cycles/50_000 times.
	if tick.n < 10 {
		t.Errorf("ticker fired %d times over %d cycles", tick.n, vm.Cycles())
	}
}

func TestCycleBudgetAbort(t *testing.T) {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	m := u.AddMethod(c, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, m)
	b.Label("spin")
	b.Goto("spin")
	b.MustBuild()
	u.Layout()
	_, vm, err := vmtest.Run(u, m, vmtest.Options{MaxCycles: 100_000})
	if err == nil {
		t.Fatal("infinite loop not aborted")
	}
	if !strings.Contains(vm.Failure().Error(), "cycle budget") {
		t.Errorf("failure = %v", vm.Failure())
	}
}

func TestRootsAtAllocationSite(t *testing.T) {
	// Verify CollectRoots through behavior: a deep call chain with ref
	// locals at every level survives a GC forced at the innermost
	// allocation (frame-walk over return addresses and FP chain).
	u := classfile.NewUniverse()
	node := u.DefineClass("N", nil)
	fv := u.AddField(node, "v", kInt)
	cl := u.DefineClass("Deep", nil)

	var lvl [4]*classfile.Method
	for i := range lvl {
		lvl[i] = u.AddMethod(cl, "lvl"+string(rune('0'+i)), false, []classfile.Kind{kRef, kInt}, kInt)
	}
	for i := range lvl {
		b := bytecode.NewBuilder(u, lvl[i])
		b.BindArg(0, "o").BindArg(1, "depth")
		b.Local("mine", kRef)
		b.New(node).Store("mine")
		b.Load("mine").Const(int64(i + 100)).PutField(fv)
		if i == len(lvl)-1 {
			// Innermost: churn to force a GC with every frame live.
			b.Local("j", kInt)
			b.Label("ch")
			b.Load("j").Const(60_000).If(bytecode.OpIfGE, "sum")
			b.New(node).Pop()
			b.Inc("j", 1)
			b.Goto("ch")
			b.Label("sum")
			b.Load("o").GetField(fv).Load("mine").GetField(fv).Add().ReturnVal()
		} else {
			b.Load("mine").Load("depth").InvokeStatic(lvl[i+1])
			b.Load("o").GetField(fv).Add().ReturnVal()
		}
		b.MustBuild()
	}
	main := u.AddMethod(cl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("root", kRef)
	b.New(node).Store("root")
	b.Load("root").Const(7).PutField(fv)
	b.Load("root").Const(0).InvokeStatic(lvl[0]).Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	for _, level := range []int{0, 2} {
		var plan runtime.CompilePlan
		if level > 0 {
			plan = vmtest.AllOpt(u, level)
		}
		got, vm, err := vmtest.Run(u, main, vmtest.Options{Heap: 2 << 20, Plan: plan})
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		// lvl3 returns o.v(=102)+mine.v(=103) = 205; lvl2 adds 101 -> 306;
		// lvl1 adds 100 -> 406; lvl0 adds 7 -> 413.
		if got[0] != 413 {
			t.Fatalf("level %d: result = %d, want 413", level, got[0])
		}
		minor, _ := vm.Collector.Collections()
		if minor == 0 {
			t.Fatalf("level %d: no GC under churn", level)
		}
	}
}
