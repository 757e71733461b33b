package coalloc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/coalloc"
	"hpmvm/internal/core"
	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
	"hpmvm/internal/snap"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

const (
	kInt  = classfile.KindInt
	kRef  = classfile.KindRef
	kVoid = classfile.KindVoid
)

// hotPairProgram keeps an array of Node objects whose payload arrays
// are re-read in strided sweeps (missy), with steady node turnover so
// fresh pairs keep being promoted.
func hotPairProgram(u *classfile.Universe) (*classfile.Method, *classfile.Field) {
	node := u.DefineClass("Node", nil)
	fpay := u.AddField(node, "payload", kRef)
	cl := u.DefineClass("Main", nil)
	main := u.AddMethod(cl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("nodes", kRef)
	b.Local("i", kInt)
	b.Local("round", kInt)
	b.Local("n", kRef)
	b.Local("sum", kInt)
	b.Const(5000).NewArray(u.RefArray).Store("nodes")
	b.Label("mk")
	b.Load("i").Const(5000).If(bytecode.OpIfGE, "run")
	b.New(node).Store("n")
	b.Load("n").Const(10).NewArray(u.IntArray).PutField(fpay)
	b.Load("nodes").Load("i").Load("n").AStore(kRef)
	b.Inc("i", 1)
	b.Goto("mk")
	b.Label("run")
	b.Const(0).Store("round")
	b.Label("rounds")
	b.Load("round").Const(500).If(bytecode.OpIfGE, "done")
	// Sweep: chase node -> payload[0].
	b.Const(0).Store("i")
	b.Label("sweep")
	b.Load("i").Const(5000).If(bytecode.OpIfGE, "mutate")
	b.Load("sum").
		Load("nodes").Load("i").ALoad(kRef).GetField(fpay).Const(0).ALoad(kInt).
		Add().Store("sum")
	b.Inc("i", 7)
	b.Goto("sweep")
	b.Label("mutate")
	// Replace 200 nodes per round (turnover: promotions happen all run).
	b.Const(0).Store("i")
	b.Label("rep")
	b.Load("i").Const(200).If(bytecode.OpIfGE, "rnext")
	b.New(node).Store("n")
	b.Load("n").Const(10).NewArray(u.IntArray).PutField(fpay)
	b.Load("nodes").Load("round").Const(97).Mul().Load("i").Add().Const(5000).Rem().Load("n").AStore(kRef)
	b.Inc("i", 1)
	b.Goto("rep")
	b.Label("rnext")
	b.Inc("round", 1)
	b.Goto("rounds")
	b.Label("done")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	return main, fpay
}

// policy is the system's managed co-allocation policy.
func policy(sys *core.System) *coalloc.Policy {
	return sys.Optimization(opt.KindCoalloc).(*coalloc.Policy)
}

func runPolicy(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	u := classfile.NewUniverse()
	main, _ := hotPairProgram(u)
	u.Layout()
	sys, err := core.NewSystemOpts(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(bench.AllOptPlan(u, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(main, 0); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPolicyActivatesHotField(t *testing.T) {
	sys := runPolicy(t, core.Options{
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
		Optimizations:    []core.OptimizationConfig{{Kind: opt.KindCoalloc}},
	})
	if sys.GenMS.Stats().CoallocPairs == 0 {
		t.Fatalf("no pairs placed; records: %v", sys.OptManager.Records())
	}
	var active bool
	for _, d := range policy(sys).Decisions() {
		if d.Field.QualifiedName() == "Node::payload" && d.Mode == "active" {
			active = true
			if d.Gap != 0 {
				t.Error("default placement should be adjacent")
			}
		}
	}
	if !active {
		t.Fatalf("Node::payload not active; decisions: %+v", policy(sys).Decisions())
	}
	// Co-allocation must reduce misses against the plain run.
	base := runPolicy(t, core.Options{HeapLimit: 8 << 20})
	if sys.Hier().Stats().L1Misses >= base.Hier().Stats().L1Misses {
		t.Errorf("no miss reduction: %d vs %d",
			sys.Hier().Stats().L1Misses, base.Hier().Stats().L1Misses)
	}
}

// TestRestoreRejectsUnknownFieldMode: a field is idle or active, so a
// blob carrying any other mode is a state no encoder writes and fails
// with snap.ErrDecode, leaving the policy as it was.
func TestRestoreRejectsUnknownFieldMode(t *testing.T) {
	sys := runPolicy(t, core.Options{
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
		Optimizations:    []core.OptimizationConfig{{Kind: opt.KindCoalloc}},
	})
	valid := policy(sys).Snapshot()
	// The blob opens with the field-state count, then the first entry's
	// field id and mode, one 64-bit word each.
	if binary.LittleEndian.Uint64(valid.Data) == 0 {
		t.Fatal("no field states to corrupt")
	}
	withMode := func(mode int64) snap.ComponentState {
		st := valid
		st.Data = bytes.Clone(valid.Data)
		binary.LittleEndian.PutUint64(st.Data[16:], uint64(mode))
		return st
	}
	for _, mode := range []int64{2, -1} {
		if err := policy(sys).Restore(withMode(mode)); !errors.Is(err, snap.ErrDecode) {
			t.Errorf("mode %d: Restore = %v, want snap.ErrDecode", mode, err)
		}
		if !bytes.Equal(policy(sys).Snapshot().Data, valid.Data) {
			t.Errorf("mode %d: failed Restore modified the policy", mode)
		}
	}
	// The same word set to active is a valid blob: the offset is right.
	if err := policy(sys).Restore(withMode(1)); err != nil {
		t.Errorf("mode 1 (active) rejected: %v", err)
	}
}

func TestPolicyRevertsForcedGap(t *testing.T) {
	u := classfile.NewUniverse()
	main, _ := hotPairProgram(u)
	u.Layout()
	// Measure run length first so the intervention lands mid-run.
	sys0, err := core.NewSystemOpts(u, core.Options{HeapLimit: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys0.Boot(bench.AllOptPlan(u, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys0.Run(main, 0); err != nil {
		t.Fatal(err)
	}
	mid := sys0.VM.Cycles() / 2

	u2 := classfile.NewUniverse()
	main2, _ := hotPairProgram(u2)
	u2.Layout()
	cc := coalloc.Config{GapAtCycle: mid}
	sys, err := core.NewSystemOpts(u2, core.Options{
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 800,
		Optimizations:    []core.OptimizationConfig{{Kind: opt.KindCoalloc, Config: cc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(bench.AllOptPlan(u2, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(main2, 0); err != nil {
		t.Fatal(err)
	}
	var intervened, reverted bool
	for _, r := range sys.OptManager.Records() {
		intervened = intervened || r.Verdict == opt.VerdictOpen && r.Code == obs.DecisionIntervene
		reverted = reverted || r.Verdict == opt.VerdictBad
	}
	if !intervened {
		t.Fatalf("intervention never fired; records: %v", sys.OptManager.Records())
	}
	if !reverted {
		t.Fatalf("poor placement not reverted; records: %v", sys.OptManager.Records())
	}
	// After the revert the hot field must be back on adjacent placement.
	for _, d := range policy(sys).Decisions() {
		if d.Field.QualifiedName() == "Node::payload" {
			if d.Mode != "active" || d.Gap != 0 {
				t.Errorf("post-revert state: %+v", d)
			}
			if d.Reverts == 0 {
				t.Error("revert counter zero")
			}
		}
	}
}
