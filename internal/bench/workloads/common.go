// Package workloads defines the 16 synthetic benchmark programs of
// Table 1 (SPECjvm98, DaCapo and pseudojbb analogues). Each program is
// written in the VM's bytecode via builders and reproduces the heap
// shape and access signature of the benchmark it is named after (see
// DESIGN.md §11); all programs are deterministic and self-checking.
//
// The shared class library here (String, Vector, Rand) is written
// javac-style: field access paths like s.value[i] are re-evaluated
// inside loops rather than hand-hoisted, exactly as javac emits them —
// this is what gives the optimizing compiler's access-path analysis
// its (S, f) pairs (§5.2).
package workloads

import (
	"hpmvm/internal/bench"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

// LCG constants (Knuth MMIX) used by the in-VM Rand class.
const (
	lcgMul = -3372029247567499371 // 6364136223846793005 as int64
	lcgAdd = 1442695040888963407
)

// Lib is the shared class library built into each workload's universe.
type Lib struct {
	U *classfile.Universe

	// String holds a char[] in its value field — the paper's Figure 7
	// tracks misses on String::value.
	String   *classfile.Class
	StrValue *classfile.Field

	// Rand is a deterministic LCG.
	Rand     *classfile.Class
	RandSeed *classfile.Field
	RandNext *classfile.Method // virtual (this) -> int in [0, 2^30)

	// Vector is a growable array of references.
	Vector  *classfile.Class
	VecData *classfile.Field
	VecSize *classfile.Field
	VecNew  *classfile.Method // static (cap) -> Vector
	VecAdd  *classfile.Method // virtual (this, e) -> void
	VecGet  *classfile.Method // virtual (this, i) -> ref
	VecSet  *classfile.Method // virtual (this, i, e) -> void
	VecLen  *classfile.Method // virtual (this) -> int

	StrCmp  *classfile.Method // static (a, b) -> int (lexicographic)
	StrHash *classfile.Method // static (s) -> int
	RandStr *classfile.Method // static (rand, len) -> String
	NewRand *classfile.Method // static (seed) -> Rand
}

const (
	kInt  = classfile.KindInt
	kRef  = classfile.KindRef
	kChar = classfile.KindChar
	kByte = classfile.KindByte
	kVoid = classfile.KindVoid
)

// NewLib builds the shared library into a fresh universe.
func NewLib() *Lib {
	u := classfile.NewUniverse()
	l := &Lib{U: u}

	l.String = u.DefineClass("String", nil)
	l.StrValue = u.AddField(l.String, "value", kRef)

	l.Rand = u.DefineClass("Rand", nil)
	l.RandSeed = u.AddField(l.Rand, "seed", kInt)
	l.RandNext = u.AddMethod(l.Rand, "next", true, []classfile.Kind{kRef}, kInt)

	l.Vector = u.DefineClass("Vector", nil)
	l.VecData = u.AddField(l.Vector, "data", kRef)
	l.VecSize = u.AddField(l.Vector, "size", kInt)
	l.VecNew = u.AddMethod(l.Vector, "vecNew", false, []classfile.Kind{kInt}, kRef)
	l.VecAdd = u.AddMethod(l.Vector, "add", true, []classfile.Kind{kRef, kRef}, kVoid)
	l.VecGet = u.AddMethod(l.Vector, "get", true, []classfile.Kind{kRef, kInt}, kRef)
	l.VecSet = u.AddMethod(l.Vector, "set", true, []classfile.Kind{kRef, kInt, kRef}, kVoid)
	l.VecLen = u.AddMethod(l.Vector, "size", true, []classfile.Kind{kRef}, kInt)

	lib := u.DefineClass("Lib", nil)
	l.StrCmp = u.AddMethod(lib, "strCmp", false, []classfile.Kind{kRef, kRef}, kInt)
	l.StrHash = u.AddMethod(lib, "strHash", false, []classfile.Kind{kRef}, kInt)
	l.RandStr = u.AddMethod(lib, "randStr", false, []classfile.Kind{kRef, kInt}, kRef)
	l.NewRand = u.AddMethod(lib, "newRand", false, []classfile.Kind{kInt}, kRef)

	l.buildRand()
	l.buildVector()
	l.buildStrings()
	return l
}

// B starts a builder for a method (panicking helpers keep workload
// definitions terse; workloads are trusted in-process code).
func (l *Lib) B(m *classfile.Method) *bytecode.Builder {
	return bytecode.NewBuilder(l.U, m)
}

// Done finalizes a builder.
func Done(b *bytecode.Builder) {
	b.MustBuild()
}

func (l *Lib) buildRand() {
	// Rand.next: seed = seed*M + A; return (seed >>> 33) & 0x3FFFFFFF.
	b := l.B(l.RandNext)
	b.BindArg(0, "this")
	b.Load("this").Dup().GetField(l.RandSeed).
		Const(lcgMul).Mul().Const(lcgAdd).Add().
		PutField(l.RandSeed)
	b.Load("this").GetField(l.RandSeed).Const(33).Shr().Const(0x3FFFFFFF).And().ReturnVal()
	Done(b)

	// Lib.newRand(seed): r = new Rand; r.seed = seed; return r.
	b = l.B(l.NewRand)
	b.BindArg(0, "seed")
	b.Local("r", kRef)
	b.New(l.Rand).Store("r")
	b.Load("r").Load("seed").PutField(l.RandSeed)
	b.Load("r").ReturnVal()
	Done(b)
}

func (l *Lib) buildVector() {
	u := l.U

	// vecNew(cap): v = new Vector; v.data = new ref[max(cap,4)]; return v.
	b := l.B(l.VecNew)
	b.BindArg(0, "cap")
	b.Local("v", kRef)
	b.Load("cap").Const(4).If(bytecode.OpIfGE, "capok")
	b.Const(4).Store("cap")
	b.Label("capok")
	b.New(l.Vector).Store("v")
	b.Load("v").Load("cap").NewArray(u.RefArray).PutField(l.VecData)
	b.Load("v").ReturnVal()
	Done(b)

	// add(this, e): grow if needed, then data[size++] = e.
	b = l.B(l.VecAdd)
	b.BindArg(0, "this").BindArg(1, "e")
	b.Local("nd", kRef)
	b.Local("i", kInt)
	b.Load("this").GetField(l.VecSize).Load("this").GetField(l.VecData).ArrayLen().If(bytecode.OpIfLT, "store")
	// grow: nd = new ref[2*len]; copy; data = nd
	b.Load("this").GetField(l.VecData).ArrayLen().Const(2).Mul().NewArray(u.RefArray).Store("nd")
	b.Const(0).Store("i")
	b.Label("copy")
	b.Load("i").Load("this").GetField(l.VecSize).If(bytecode.OpIfGE, "grown")
	b.Load("nd").Load("i").Load("this").GetField(l.VecData).Load("i").ALoad(kRef).AStore(kRef)
	b.Inc("i", 1)
	b.Goto("copy")
	b.Label("grown")
	b.Load("this").Load("nd").PutField(l.VecData)
	b.Label("store")
	b.Load("this").GetField(l.VecData).Load("this").GetField(l.VecSize).Load("e").AStore(kRef)
	b.Load("this").Load("this").GetField(l.VecSize).Const(1).Add().PutField(l.VecSize)
	b.Return()
	Done(b)

	// get(this, i): return data[i].
	b = l.B(l.VecGet)
	b.BindArg(0, "this").BindArg(1, "i")
	b.Load("this").GetField(l.VecData).Load("i").ALoad(kRef).ReturnVal()
	Done(b)

	// set(this, i, e): data[i] = e.
	b = l.B(l.VecSet)
	b.BindArg(0, "this").BindArg(1, "i").BindArg(2, "e")
	b.Load("this").GetField(l.VecData).Load("i").Load("e").AStore(kRef)
	b.Return()
	Done(b)

	// size(this).
	b = l.B(l.VecLen)
	b.BindArg(0, "this")
	b.Load("this").GetField(l.VecSize).ReturnVal()
	Done(b)
}

func (l *Lib) buildStrings() {
	// strCmp(a, b): lexicographic comparison, javac-style re-loading
	// of a.value/b.value in the loop body (the paper's hot access
	// path: misses on the char data are charged to String::value).
	b := l.B(l.StrCmp)
	b.BindArg(0, "a").BindArg(1, "b")
	b.Local("la", kInt)
	b.Local("lb", kInt)
	b.Local("n", kInt)
	b.Local("i", kInt)
	b.Local("ca", kInt)
	b.Local("cb", kInt)
	b.Load("a").GetField(l.StrValue).ArrayLen().Store("la")
	b.Load("b").GetField(l.StrValue).ArrayLen().Store("lb")
	b.Load("la").Store("n")
	b.Load("la").Load("lb").If(bytecode.OpIfLE, "loop")
	b.Load("lb").Store("n")
	b.Label("loop")
	b.Load("i").Load("n").If(bytecode.OpIfGE, "tail")
	b.Load("a").GetField(l.StrValue).Load("i").ALoad(kChar).Store("ca")
	b.Load("b").GetField(l.StrValue).Load("i").ALoad(kChar).Store("cb")
	b.Load("ca").Load("cb").If(bytecode.OpIfNE, "diff")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("diff")
	b.Load("ca").Load("cb").Sub().ReturnVal()
	b.Label("tail")
	b.Load("la").Load("lb").Sub().ReturnVal()
	Done(b)

	// strHash(s): h = h*31 + s.value[i].
	b = l.B(l.StrHash)
	b.BindArg(0, "s")
	b.Local("h", kInt)
	b.Local("i", kInt)
	b.Label("loop")
	b.Load("i").Load("s").GetField(l.StrValue).ArrayLen().If(bytecode.OpIfGE, "done")
	b.Load("h").Const(31).Mul().Load("s").GetField(l.StrValue).Load("i").ALoad(kChar).Add().Store("h")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("done")
	b.Load("h").ReturnVal()
	Done(b)

	// randStr(rand, len): fresh char[] + String pair. The allocation
	// order (char[] immediately before its String) mirrors Java's
	// "new String(...)" and makes the pair a nursery neighbor — the
	// mature-space free list then scatters them unless co-allocation
	// intervenes (§5.1).
	b = l.B(l.RandStr)
	b.BindArg(0, "rand").BindArg(1, "len")
	b.Local("arr", kRef)
	b.Local("s", kRef)
	b.Local("i", kInt)
	b.Load("len").NewArray(l.U.CharArray).Store("arr")
	b.Label("fill")
	b.Load("i").Load("len").If(bytecode.OpIfGE, "mk")
	b.Load("arr").Load("i").
		Load("rand").InvokeVirtual(l.RandNext).Const(26).Rem().Const('a').Add().
		AStore(kChar)
	b.Inc("i", 1)
	b.Goto("fill")
	b.Label("mk")
	b.New(l.String).Store("s")
	b.Load("s").Load("arr").PutField(l.StrValue)
	b.Load("s").ReturnVal()
	Done(b)
}

// Entry declares the workload's entry method on a fresh class.
func (l *Lib) Entry(name string) *classfile.Method {
	cl := l.U.DefineClass(name, nil)
	return l.U.AddMethod(cl, "main", false, nil, kVoid)
}

// register wraps bench.Register with the common finalization: it
// declares the workload's metadata and lays out the universe each
// build returns.
func register(name, desc string, minHeap uint64, hotField string, build func(l *Lib) (*classfile.Method, []int64)) {
	meta := bench.Meta{Description: desc, MinHeap: minHeap, HotFieldName: hotField}
	bench.Register(name, meta, func() *bench.Program {
		l := NewLib()
		entry, expected := build(l)
		l.U.Layout()
		return &bench.Program{U: l.U, Entry: entry, Expected: expected}
	})
}
