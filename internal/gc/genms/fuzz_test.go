package genms_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/vmtest"
)

// GC fuzzing: random object-graph mutation sequences are generated in
// Go, emitted as straight-line bytecode, and mirrored by a direct Go
// interpretation of the same sequence. A small heap forces many
// collections mid-sequence; any divergence in the final graph checksum
// means the collectors (or compilers) corrupted the graph.

type fuzzOp struct {
	kind    int // 0=new, 1=link-next, 2=link-other, 3=move, 4=clear, 5=churn, 6=setval
	a, b, c int
}

const fuzzRoots = 12

func genOps(r *rand.Rand, n int) []fuzzOp {
	ops := make([]fuzzOp, n)
	for i := range ops {
		ops[i] = fuzzOp{
			kind: r.Intn(7),
			a:    r.Intn(fuzzRoots),
			b:    r.Intn(fuzzRoots),
			c:    r.Intn(1000) + 1,
		}
	}
	return ops
}

// goMirror executes the sequence over real Go objects.
type goNode struct {
	next, other *goNode
	val         int64
}

func goMirror(ops []fuzzOp) int64 {
	roots := make([]*goNode, fuzzRoots)
	for _, op := range ops {
		switch op.kind {
		case 0:
			roots[op.a] = &goNode{val: int64(op.c)}
		case 1:
			if roots[op.a] != nil {
				roots[op.a].next = roots[op.b]
			}
		case 2:
			if roots[op.a] != nil {
				roots[op.a].other = roots[op.b]
			}
		case 3:
			roots[op.a] = roots[op.b]
		case 4:
			roots[op.a] = nil
		case 5:
			// churn: no visible effect
		case 6:
			if roots[op.a] != nil {
				roots[op.a].val = int64(op.c)
			}
		}
	}
	var sum int64
	for _, root := range roots {
		n := root
		for step := 0; step < 40 && n != nil; step++ {
			sum += n.val
			if step%3 == 2 {
				n = n.other
			} else {
				n = n.next
			}
		}
	}
	return sum
}

// emitProgram turns the sequence into bytecode.
func emitProgram(u *classfile.Universe, ops []fuzzOp) *classfile.Method {
	node := u.DefineClass("FNode", nil)
	fNext := u.AddField(node, "next", classfile.KindRef)
	fOther := u.AddField(node, "other", classfile.KindRef)
	fVal := u.AddField(node, "val", classfile.KindInt)

	cl := u.DefineClass("FuzzMain", nil)
	main := u.AddMethod(cl, "main", false, nil, classfile.KindVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("roots", classfile.KindRef)
	b.Local("t", classfile.KindRef)
	b.Local("n", classfile.KindRef)
	b.Local("i", classfile.KindInt)
	b.Local("step", classfile.KindInt)
	b.Local("sum", classfile.KindInt)
	b.Const(fuzzRoots).NewArray(u.RefArray).Store("roots")

	loadRoot := func(idx int) {
		b.Load("roots").Const(int64(idx)).ALoad(classfile.KindRef)
	}
	for i, op := range ops {
		lbl := fmt.Sprintf("op%d", i)
		switch op.kind {
		case 0:
			b.New(node).Store("t")
			b.Load("t").Const(int64(op.c)).PutField(fVal)
			b.Load("roots").Const(int64(op.a)).Load("t").AStore(classfile.KindRef)
		case 1, 2:
			f := fNext
			if op.kind == 2 {
				f = fOther
			}
			loadRoot(op.a)
			b.Store("t")
			b.Load("t").IfNull(lbl)
			b.Load("t")
			loadRoot(op.b)
			b.PutField(f)
			b.Label(lbl)
		case 3:
			b.Load("roots").Const(int64(op.a))
			loadRoot(op.b)
			b.AStore(classfile.KindRef)
		case 4:
			b.Load("roots").Const(int64(op.a)).Null().AStore(classfile.KindRef)
		case 5:
			// churn: op.c garbage nodes
			b.Const(0).Store("i")
			b.Label(lbl + "c")
			b.Load("i").Const(int64(op.c)).If(bytecode.OpIfGE, lbl)
			b.New(node).Pop()
			b.Inc("i", 1)
			b.Goto(lbl + "c")
			b.Label(lbl)
		case 6:
			loadRoot(op.a)
			b.Store("t")
			b.Load("t").IfNull(lbl)
			b.Load("t").Const(int64(op.c)).PutField(fVal)
			b.Label(lbl)
		}
	}

	// Checksum: bounded alternating walk from every root.
	b.Const(0).Store("i")
	b.Label("chk")
	b.Load("i").Const(fuzzRoots).If(bytecode.OpIfGE, "emit")
	b.Load("roots").Load("i").ALoad(classfile.KindRef).Store("n")
	b.Const(0).Store("step")
	b.Label("walk")
	b.Load("step").Const(40).If(bytecode.OpIfGE, "next")
	b.Load("n").IfNull("next")
	b.Load("sum").Load("n").GetField(fVal).Add().Store("sum")
	b.Load("step").Const(3).Rem().Const(2).If(bytecode.OpIfNE, "viaNext")
	b.Load("n").GetField(fOther).Store("n")
	b.Goto("stepinc")
	b.Label("viaNext")
	b.Load("n").GetField(fNext).Store("n")
	b.Label("stepinc")
	b.Inc("step", 1)
	b.Goto("walk")
	b.Label("next")
	b.Inc("i", 1)
	b.Goto("chk")
	b.Label("emit")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	return main
}

// checkGraph generates n operations from seed and runs them on both
// compilers and both collectors against the Go mirror. It returns the
// fewest minor collections any configuration performed.
func checkGraph(t *testing.T, seed int64, n int) (minor uint64) {
	t.Helper()
	ops := genOps(rand.New(rand.NewSource(seed)), n)
	want := goMirror(ops)

	minor = math.MaxUint64
	for _, cfg := range []struct {
		name    string
		level   int
		genCopy bool
	}{
		{"baseline-genms", 0, false},
		{"baseline-gencopy", 0, true},
		{"opt2-genms", 2, false},
		{"opt2-gencopy", 2, true},
	} {
		u := classfile.NewUniverse()
		main := emitProgram(u, ops)
		u.Layout()
		opts := vmtest.Options{Heap: 1 << 20, GenCopy: cfg.genCopy}
		if cfg.level > 0 {
			opts.Plan = vmtest.AllOpt(u, cfg.level)
		}
		got, vm, err := vmtest.Run(u, main, opts)
		if err != nil {
			t.Fatalf("seed %d, %d ops, %s: %v", seed, n, cfg.name, err)
		}
		if got[0] != want {
			t.Fatalf("seed %d, %d ops, %s: checksum %d, want %d", seed, n, cfg.name, got[0], want)
		}
		m, _ := vm.Collector.Collections()
		minor = min(minor, m)
	}
	return minor
}

const (
	fuzzSeeds    = 8 // seeds 1000.. of the seeded test, and the fuzz corpus
	fuzzSeedOps  = 400
	fuzzOpsLimit = 2048 // keeps one fuzz execution well under a second
)

func TestGCFuzzRandomGraphs(t *testing.T) {
	trials := fuzzSeeds
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		if checkGraph(t, int64(1000+trial), fuzzSeedOps) == 0 {
			t.Errorf("trial %d: a configuration never collected — the sequence tests no collector", trial)
		}
	}
}

// FuzzGCGraph lets the fuzzer pick the seed and the length of the
// sequence; `make fuzz-smoke` runs it for ten seconds.
func FuzzGCGraph(f *testing.F) {
	for trial := 0; trial < fuzzSeeds; trial++ {
		f.Add(int64(1000+trial), uint16(fuzzSeedOps))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		checkGraph(t, seed, int(ops)%fuzzOpsLimit)
	})
}
