package workloads

import (
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

// SPECjvm98 analogues (Table 1): compress, jess, javac, mpegaudio,
// mtrt, jack (db lives in db.go). Each reproduces the original's heap
// signature; see DESIGN.md §11.

// --- compress ---------------------------------------------------------------
//
// LZW-flavored passes over large byte/int arrays. All big data lives in
// the large-object space, so the program has no co-allocation
// candidates (§6.3: "compress and mpegaudio ... allocate mostly large
// objects which are placed in the separate large-object space").
const (
	compSize = 256 * 1024
	compDict = 32 * 1024
	compPass = 3
	compSeed = 424242
)

func init() {
	register("compress", "LZW-style compression passes over large LOS arrays",
		4<<20, "", buildCompress)
}

func buildCompress(l *Lib) (*classfile.Method, []int64) {
	u := l.U
	main := l.Entry("CompressMain")
	b := l.B(main)
	b.Local("rand", kRef)
	b.Local("in", kRef)
	b.Local("dict", kRef)
	b.Local("i", kInt)
	b.Local("p", kInt)
	b.Local("h", kInt)
	b.Local("code", kInt)
	b.Local("check", kInt)

	b.Const(compSeed).InvokeStatic(l.NewRand).Store("rand")
	b.Const(compSize).NewArray(u.ByteArray).Store("in")
	b.Const(compDict).NewArray(u.IntArray).Store("dict")
	// Fill input.
	b.Const(0).Store("i")
	b.Label("fill")
	b.Load("i").Const(compSize).If(bytecode.OpIfGE, "pass0")
	b.Load("in").Load("i").Load("rand").InvokeVirtual(l.RandNext).Const(251).Rem().AStore(kByte)
	b.Inc("i", 1)
	b.Goto("fill")
	// Compression passes: rolling hash into the dictionary; emit a
	// "code" when the dictionary hits, else insert.
	b.Label("pass0")
	b.Const(0).Store("p")
	b.Label("passes")
	b.Load("p").Const(compPass).If(bytecode.OpIfGE, "done")
	b.Const(0).Store("h")
	b.Const(1).Store("i")
	b.Label("scan")
	b.Load("i").Const(compSize).If(bytecode.OpIfGE, "passnext")
	// h = (h*33 + in[i] ^ in[i-1]) & (compDict-1)
	b.Load("h").Const(33).Mul().
		Load("in").Load("i").ALoad(kByte).Add().
		Load("in").Load("i").Const(1).Sub().ALoad(kByte).Xor().
		Const(compDict - 1).And().Store("h")
	b.Load("dict").Load("h").ALoad(kInt).Store("code")
	b.Load("code").Load("i").If(bytecode.OpIfEQ, "hit")
	b.Load("dict").Load("h").Load("i").AStore(kInt)
	b.Goto("scannext")
	b.Label("hit")
	b.Load("check").Load("h").Add().Const(0xFFFFFF).And().Store("check")
	b.Label("scannext")
	b.Inc("i", 1)
	b.Goto("scan")
	b.Label("passnext")
	b.Inc("p", 1)
	b.Goto("passes")
	b.Label("done")
	b.Load("check").Result()
	b.Return()
	Done(b)

	return main, compressExpected()
}

func compressExpected() []int64 {
	r := &goRand{seed: compSeed}
	in := make([]int64, compSize)
	dict := make([]int64, compDict)
	for i := range in {
		in[i] = r.next() % 251
	}
	var check, h int64
	for p := 0; p < compPass; p++ {
		h = 0
		for i := 1; i < compSize; i++ {
			h = ((h*33 + in[i]) ^ in[i-1]) & (compDict - 1)
			if dict[h] == int64(i) {
				check = (check + h) & 0xFFFFFF
			} else {
				dict[h] = int64(i)
			}
		}
	}
	return []int64{check}
}

// --- mpegaudio --------------------------------------------------------------
//
// Polyphase-filter-flavored numeric kernel: multiply-accumulate loops
// over int arrays, almost no allocation (the paper observes only
// monitoring noise on this program, no co-allocation candidates).
const (
	mpegWindows = 3000
	mpegFilters = 32
	mpegTaps    = 16
	mpegSignal  = 32 * 1024
	mpegSeed    = 777001
)

func init() {
	register("mpegaudio", "polyphase filter bank over int arrays (numeric kernel)",
		3<<20, "", buildMpeg)
}

func buildMpeg(l *Lib) (*classfile.Method, []int64) {
	u := l.U
	main := l.Entry("MpegMain")
	b := l.B(main)
	b.Local("rand", kRef)
	b.Local("sig", kRef)
	b.Local("coef", kRef)
	b.Local("w", kInt)
	b.Local("f", kInt)
	b.Local("k", kInt)
	b.Local("base", kInt)
	b.Local("acc", kInt)
	b.Local("check", kInt)
	b.Local("i", kInt)

	b.Const(mpegSeed).InvokeStatic(l.NewRand).Store("rand")
	b.Const(mpegSignal).NewArray(u.IntArray).Store("sig")
	b.Const(mpegFilters * mpegTaps).NewArray(u.IntArray).Store("coef")
	b.Label("fill")
	b.Load("i").Const(mpegSignal).If(bytecode.OpIfGE, "fillc")
	b.Load("sig").Load("i").Load("rand").InvokeVirtual(l.RandNext).Const(2048).Rem().Const(1024).Sub().AStore(kInt)
	b.Inc("i", 1)
	b.Goto("fill")
	b.Label("fillc")
	b.Const(0).Store("i")
	b.Label("fill2")
	b.Load("i").Const(mpegFilters*mpegTaps).If(bytecode.OpIfGE, "run")
	b.Load("coef").Load("i").Load("rand").InvokeVirtual(l.RandNext).Const(128).Rem().Const(64).Sub().AStore(kInt)
	b.Inc("i", 1)
	b.Goto("fill2")
	b.Label("run")
	b.Const(0).Store("w")
	b.Label("wloop")
	b.Load("w").Const(mpegWindows).If(bytecode.OpIfGE, "done")
	b.Load("w").Const(97).Mul().Const(mpegSignal - mpegTaps).Rem().Store("base")
	b.Const(0).Store("f")
	b.Label("floop")
	b.Load("f").Const(mpegFilters).If(bytecode.OpIfGE, "wnext")
	b.Const(0).Store("acc")
	b.Const(0).Store("k")
	b.Label("kloop")
	b.Load("k").Const(mpegTaps).If(bytecode.OpIfGE, "fsum")
	b.Load("acc").
		Load("sig").Load("base").Load("k").Add().ALoad(kInt).
		Load("coef").Load("f").Const(mpegTaps).Mul().Load("k").Add().ALoad(kInt).
		Mul().Add().Store("acc")
	b.Inc("k", 1)
	b.Goto("kloop")
	b.Label("fsum")
	b.Load("check").Load("acc").Add().Const(0xFFFFFFF).And().Store("check")
	b.Inc("f", 1)
	b.Goto("floop")
	b.Label("wnext")
	b.Inc("w", 1)
	b.Goto("wloop")
	b.Label("done")
	b.Load("check").Result()
	b.Return()
	Done(b)

	return main, mpegExpected()
}

func mpegExpected() []int64 {
	r := &goRand{seed: mpegSeed}
	sig := make([]int64, mpegSignal)
	coef := make([]int64, mpegFilters*mpegTaps)
	for i := range sig {
		sig[i] = r.next()%2048 - 1024
	}
	for i := range coef {
		coef[i] = r.next()%128 - 64
	}
	var check int64
	for w := 0; w < mpegWindows; w++ {
		base := int64(w) * 97 % (mpegSignal - mpegTaps)
		for f := 0; f < mpegFilters; f++ {
			var acc int64
			for k := 0; k < mpegTaps; k++ {
				acc += sig[base+int64(k)] * coef[f*mpegTaps+k]
			}
			check = (check + acc) & 0xFFFFFFF
		}
	}
	return []int64{check}
}

// --- javac ------------------------------------------------------------------
//
// Symbol-table churn: a binary search tree keyed by String (symbol
// names), with repeated insert/lookup phases — many small tree nodes
// and short-lived name strings.
const (
	javacSymbols = 15000
	javacLookups = 12000
	javacNameLen = 10
	javacSeed    = 160302
)

func init() {
	register("javac", "compiler symbol table: String-keyed BST insert/lookup churn",
		6<<20, "String::value", buildJavac)
}

func buildJavac(l *Lib) (*classfile.Method, []int64) {
	u := l.U
	node := u.DefineClass("SymNode", nil)
	fLeft := u.AddField(node, "left", kRef)
	fRight := u.AddField(node, "right", kRef)
	fName := u.AddField(node, "name", kRef)
	fCount := u.AddField(node, "count", kInt)

	// insert(root, s) -> root (iterative BST insert; duplicate keys
	// bump a counter).
	insert := u.AddMethod(node, "insert", false, []classfile.Kind{kRef, kRef}, kRef)
	b := l.B(insert)
	b.BindArg(0, "root").BindArg(1, "s")
	b.Local("n", kRef)
	b.Local("c", kInt)
	b.Local("fresh", kRef)
	b.New(node).Store("fresh")
	b.Load("fresh").Load("s").PutField(fName)
	b.Load("fresh").Const(1).PutField(fCount)
	b.Load("root").IfNonNull("walk")
	b.Load("fresh").ReturnVal()
	b.Label("walk")
	b.Load("root").Store("n")
	b.Label("step")
	b.Load("s").Load("n").GetField(fName).InvokeStatic(l.StrCmp).Store("c")
	b.Load("c").Const(0).If(bytecode.OpIfNE, "branch")
	b.Load("n").Load("n").GetField(fCount).Const(1).Add().PutField(fCount)
	b.Load("root").ReturnVal()
	b.Label("branch")
	b.Load("c").Const(0).If(bytecode.OpIfLT, "goleft")
	b.Load("n").GetField(fRight).IfNull("putright")
	b.Load("n").GetField(fRight).Store("n")
	b.Goto("step")
	b.Label("putright")
	b.Load("n").Load("fresh").PutField(fRight)
	b.Load("root").ReturnVal()
	b.Label("goleft")
	b.Load("n").GetField(fLeft).IfNull("putleft")
	b.Load("n").GetField(fLeft).Store("n")
	b.Goto("step")
	b.Label("putleft")
	b.Load("n").Load("fresh").PutField(fLeft)
	b.Load("root").ReturnVal()
	Done(b)

	// lookup(root, s) -> count (0 when absent).
	lookup := u.AddMethod(node, "lookup", false, []classfile.Kind{kRef, kRef}, kInt)
	b = l.B(lookup)
	b.BindArg(0, "root").BindArg(1, "s")
	b.Local("n", kRef)
	b.Local("c", kInt)
	b.Load("root").Store("n")
	b.Label("step")
	b.Load("n").IfNull("miss")
	b.Load("s").Load("n").GetField(fName).InvokeStatic(l.StrCmp).Store("c")
	b.Load("c").Const(0).If(bytecode.OpIfNE, "branch")
	b.Load("n").GetField(fCount).ReturnVal()
	b.Label("branch")
	b.Load("c").Const(0).If(bytecode.OpIfLT, "left")
	b.Load("n").GetField(fRight).Store("n")
	b.Goto("step")
	b.Label("left")
	b.Load("n").GetField(fLeft).Store("n")
	b.Goto("step")
	b.Label("miss")
	b.Const(0).ReturnVal()
	Done(b)

	main := l.Entry("JavacMain")
	b = l.B(main)
	b.Local("rand", kRef)
	b.Local("root", kRef)
	b.Local("i", kInt)
	b.Local("check", kInt)
	b.Const(javacSeed).InvokeStatic(l.NewRand).Store("rand")
	b.Label("ins")
	b.Load("i").Const(javacSymbols).If(bytecode.OpIfGE, "lkp")
	b.Load("root").Load("rand").Const(javacNameLen).InvokeStatic(l.RandStr).InvokeStatic(insert).Store("root")
	b.Inc("i", 1)
	b.Goto("ins")
	// Lookup phase replays the insert stream from a fresh Rand with
	// the same seed, so every probe finds its symbol (javac resolves
	// names it has declared).
	b.Label("lkp")
	b.Const(javacSeed).InvokeStatic(l.NewRand).Store("rand")
	b.Const(0).Store("i")
	b.Label("lloop")
	b.Load("i").Const(javacLookups).If(bytecode.OpIfGE, "done")
	b.Load("check").
		Load("root").Load("rand").Const(javacNameLen).InvokeStatic(l.RandStr).InvokeStatic(lookup).
		Add().Store("check")
	b.Inc("i", 1)
	b.Goto("lloop")
	b.Label("done")
	b.Load("check").Result()
	b.Return()
	Done(b)

	return main, javacExpected()
}

func javacExpected() []int64 {
	type nd struct {
		l, r  *nd
		name  string
		count int64
	}
	r := &goRand{seed: javacSeed}
	var root *nd
	insert := func(s string) {
		fresh := &nd{name: s, count: 1}
		if root == nil {
			root = fresh
			return
		}
		n := root
		for {
			switch {
			case s == n.name:
				n.count++
				return
			case s > n.name:
				if n.r == nil {
					n.r = fresh
					return
				}
				n = n.r
			default:
				if n.l == nil {
					n.l = fresh
					return
				}
				n = n.l
			}
		}
	}
	lookup := func(s string) int64 {
		n := root
		for n != nil {
			switch {
			case s == n.name:
				return n.count
			case s > n.name:
				n = n.r
			default:
				n = n.l
			}
		}
		return 0
	}
	for i := 0; i < javacSymbols; i++ {
		insert(goRandStr(r, javacNameLen))
	}
	r = &goRand{seed: javacSeed}
	var check int64
	for i := 0; i < javacLookups; i++ {
		check += lookup(goRandStr(r, javacNameLen))
	}
	return []int64{check}
}
