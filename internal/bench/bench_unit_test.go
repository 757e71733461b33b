package bench

import (
	"strings"
	"testing"

	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

// registerTestWorkload registers a tiny deterministic workload once.
func init() {
	Register("_unit_tiny", func() *Program {
		u := classfile.NewUniverse()
		cl := u.DefineClass("Tiny", nil)
		main := u.AddMethod(cl, "main", false, nil, classfile.KindVoid)
		b := bytecode.NewBuilder(u, main)
		b.Local("i", classfile.KindInt)
		b.Local("s", classfile.KindInt)
		b.Label("loop")
		b.Load("i").Const(50_000).If(bytecode.OpIfGE, "done")
		b.Load("s").Load("i").Add().Store("s")
		b.Inc("i", 1)
		b.Goto("loop")
		b.Label("done")
		b.Load("s").Result()
		b.Return()
		b.MustBuild()
		u.Layout()
		return &Program{
			Name:     "_unit_tiny",
			U:        u,
			Entry:    main,
			MinHeap:  1 << 20,
			Expected: []int64{50_000 * 49_999 / 2},
		}
	})
	// _unit_churn allocates ~1.4 MB of garbage nodes, enough for a
	// minor collection at the default heap.
	Register("_unit_churn", func() *Program {
		u := classfile.NewUniverse()
		node := u.DefineClass("Node", nil)
		u.AddField(node, "v", classfile.KindInt)
		cl := u.DefineClass("Churn", nil)
		main := u.AddMethod(cl, "main", false, nil, classfile.KindVoid)
		b := bytecode.NewBuilder(u, main)
		b.Local("i", classfile.KindInt)
		b.Label("loop")
		b.Load("i").Const(60_000).If(bytecode.OpIfGE, "done")
		b.New(node).Pop()
		b.Inc("i", 1)
		b.Goto("loop")
		b.Label("done")
		b.Load("i").Result()
		b.Return()
		b.MustBuild()
		u.Layout()
		return &Program{Name: "_unit_churn", U: u, Entry: main, MinHeap: 1 << 20, Expected: []int64{60_000}}
	})
}

func TestRegistry(t *testing.T) {
	if _, ok := Get("_unit_tiny"); !ok {
		t.Fatal("registered workload not found")
	}
	if _, ok := Get("_missing"); ok {
		t.Fatal("unknown workload found")
	}
	found := false
	for _, n := range Names() {
		if n == "_unit_tiny" {
			found = true
		}
	}
	if !found {
		t.Error("Names() missing registration")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration accepted")
		}
	}()
	Register("_unit_tiny", nil)
}

func TestRunVerifiesExpectedResults(t *testing.T) {
	b, _ := Get("_unit_tiny")
	res, sys, err := Run(b, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instret == 0 {
		t.Error("metrics empty")
	}
	if sys == nil || sys.VM == nil {
		t.Error("system not returned")
	}
	if res.HeapBytes != 4<<20 {
		t.Errorf("default heap = %d, want 4x min", res.HeapBytes)
	}
}

func TestDeterminism(t *testing.T) {
	// Identical seeds must give bit-identical simulated cycle counts —
	// the property all experiment deltas rest on.
	b, _ := Get("_unit_tiny")
	r1, _, err := Run(b, RunConfig{Seed: 7, Monitoring: true, Interval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Run(b, RunConfig{Seed: 7, Monitoring: true, Interval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Cache.L1Misses != r2.Cache.L1Misses {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/misses",
			r1.Cycles, r1.Cache.L1Misses, r2.Cycles, r2.Cache.L1Misses)
	}
}

func TestRepeatUsesDistinctSeeds(t *testing.T) {
	b, _ := Get("_unit_tiny")
	cfg := RunConfig{Monitoring: true, Interval: 1000, Seed: 3}
	e := NewEngine(4)
	h := e.RepeatAsync(b, cfg, 3, "tiny")
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	// Repetition i is the plain run at seed cfg.Seed + i*7919, so the
	// handle's mean and the engine's cycle total are those three runs'.
	var sum uint64
	for i := int64(0); i < 3; i++ {
		c := cfg
		c.Seed += i * 7919
		r, _, err := Run(b, c)
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Cycles
	}
	if want := float64(sum) / 3; h.Mean() != want || h.StdDev() < 0 {
		t.Errorf("mean %f (sd %f), want %f", h.Mean(), h.StdDev(), want)
	}
	if st := e.Stats(); st.Runs != 3 || st.SimCycles != sum {
		t.Errorf("engine accounted %d runs / %d cycles, want 3 / %d", st.Runs, st.SimCycles, sum)
	}
}

func TestAllOptPlanCoversMethods(t *testing.T) {
	b, _ := Get("_unit_tiny")
	prog := b()
	plan := AllOptPlan(prog.U, 2)
	n := 0
	for _, m := range prog.U.Methods() {
		if m.Code != nil {
			if plan[m.ID] != 2 {
				t.Errorf("method %s missing from plan", m.QualifiedName())
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no methods in plan")
	}
}

func TestResultMismatchDetected(t *testing.T) {
	if err := checkResults([]int64{1, 2}, []int64{1, 3}); err == nil {
		t.Error("mismatch not detected")
	}
	if err := checkResults([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch not detected")
	}
	if err := checkResults([]int64{1, 2}, []int64{1, 2}); err != nil {
		t.Errorf("false mismatch: %v", err)
	}
}

func TestExperimentNameValidation(t *testing.T) {
	if _, err := RunExperiment("nope", ExpOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	run, err := RunExperiment("table1", ExpOptions{Workloads: []string{"_unit_tiny"}})
	if err != nil || run.Output == "" {
		t.Errorf("table1 failed: %v", err)
	}
	// Every experiment resolves the workload list, the db-only ones
	// included: a misspelt workload is an error, not a silently shorter
	// table or a db run nobody asked for.
	for _, exp := range ExperimentNames {
		if _, err := RunExperiment(exp, ExpOptions{Workloads: []string{"nosuch", "_unit_tiny"}}); err == nil ||
			!strings.Contains(err.Error(), `unknown workload "nosuch"`) {
			t.Errorf("%s with an unknown workload: error = %v", exp, err)
		}
	}
}
