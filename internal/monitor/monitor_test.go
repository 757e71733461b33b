package monitor_test

import (
	"strings"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

const (
	kInt  = classfile.KindInt
	kRef  = classfile.KindRef
	kVoid = classfile.KindVoid
)

// chaseProgram builds a pointer-chasing program whose misses
// concentrate on one access path: node.payload[i] with payload loaded
// through the reference field Node::payload — so samples should be
// attributed to Node::payload.
func chaseProgram(u *classfile.Universe) (*classfile.Method, *classfile.Field) {
	node := u.DefineClass("Node", nil)
	fpay := u.AddField(node, "payload", kRef)
	cl := u.DefineClass("Main", nil)
	main := u.AddMethod(cl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("nodes", kRef)
	b.Local("i", kInt)
	b.Local("j", kInt)
	b.Local("n", kRef)
	b.Local("sum", kInt)
	// 6000 nodes, each with a 48-int payload: ~2.6 MB, far over L2.
	b.Const(6000).NewArray(u.RefArray).Store("nodes")
	b.Label("mk")
	b.Load("i").Const(6000).If(bytecode.OpIfGE, "scan")
	b.New(node).Store("n")
	b.Load("n").Const(48).NewArray(u.IntArray).PutField(fpay)
	b.Load("nodes").Load("i").Load("n").AStore(kRef)
	b.Inc("i", 1)
	b.Goto("mk")
	// Strided scans: node.payload[0] misses on every visit.
	b.Label("scan")
	b.Const(0).Store("j")
	b.Label("rounds")
	b.Load("j").Const(400).If(bytecode.OpIfGE, "done")
	b.Const(0).Store("i")
	b.Label("walk")
	b.Load("i").Const(6000).If(bytecode.OpIfGE, "jnext")
	b.Load("sum").
		Load("nodes").Load("i").ALoad(kRef).GetField(fpay).Const(0).ALoad(kInt).
		Add().Store("sum")
	b.Inc("i", 7) // stride to defeat the prefetcher
	b.Goto("walk")
	b.Label("jnext")
	b.Inc("j", 1)
	b.Goto("rounds")
	b.Label("done")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	return main, fpay
}

func runChase(t *testing.T, opts core.Options) (*core.System, *classfile.Field) {
	return runChaseWith(t, opts, nil)
}

// runChaseWith is runChase with a hook that runs on the booted system
// just before the chase program starts.
func runChaseWith(t *testing.T, opts core.Options, beforeRun func(*core.System)) (*core.System, *classfile.Field) {
	t.Helper()
	u := classfile.NewUniverse()
	main, fpay := chaseProgram(u)
	u.Layout()
	sys, err := core.NewSystemOpts(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := make(runtime.CompilePlan)
	for _, m := range u.Methods() {
		if m.Code != nil {
			plan[m.ID] = 2
		}
	}
	if err := sys.Boot(plan, nil); err != nil {
		t.Fatal(err)
	}
	if beforeRun != nil {
		beforeRun(sys)
	}
	if err := sys.Run(main, 0); err != nil {
		t.Fatal(err)
	}
	return sys, fpay
}

func TestAttributionToAccessPath(t *testing.T) {
	sys, fpay := runChase(t, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
	})
	st := sys.Monitor.Stats()
	if st.SamplesDecoded == 0 {
		t.Fatal("no samples decoded")
	}
	if fc := sys.Monitor.Field(fpay); fc == nil || fc.Samples == 0 {
		t.Fatalf("no samples attributed to %s (stats %+v)", fpay.QualifiedName(), st)
	}
	// Node::payload must be the hottest field by a wide margin.
	hot := sys.Monitor.HotFields()
	if len(hot) == 0 || hot[0].Field != fpay {
		t.Fatalf("hottest field = %v", hot)
	}
	if hot[0].EstimatedMisses == 0 || hot[0].Samples == 0 {
		t.Error("hot field counters empty")
	}
	// Estimated misses must be in the ballpark of samples * interval.
	if hot[0].EstimatedMisses != hot[0].Samples*2000 {
		t.Errorf("estimate %d != samples %d * interval", hot[0].EstimatedMisses, hot[0].Samples)
	}
}

// TestSinkSeesEveryDecodedSample pins the PC→method attribution code
// layout and software prefetch consume: a sink registered with AddSink
// is called once per decoded sample, with a method ID that resolves in
// the universe, and the chase loop's main receives the most samples.
func TestSinkSeesEveryDecodedSample(t *testing.T) {
	var calls uint64
	perMethod := make(map[int]uint64)
	sys, _ := runChaseWith(t, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
	}, func(sys *core.System) {
		sys.Monitor.AddSink(func(pc, dataAddr uint64, methodID int, interval uint64) {
			calls++
			perMethod[methodID]++
		})
	})
	st := sys.Monitor.Stats()
	if st.SamplesDecoded == 0 {
		t.Fatal("no samples decoded")
	}
	if calls != st.SamplesDecoded {
		t.Fatalf("sink called %d times, %d samples decoded", calls, st.SamplesDecoded)
	}
	hottest, most := -1, uint64(0)
	for id, n := range perMethod {
		if id < 0 || id >= len(sys.VM.U.Methods()) {
			t.Fatalf("sink received method id %d, not in the universe", id)
		}
		if n > most {
			hottest, most = id, n
		}
	}
	if m := sys.VM.U.Method(hottest); m.Name != "main" {
		t.Errorf("hottest method = %s (%d samples), want main", m.QualifiedName(), most)
	}
}

func TestAutoIntervalAdapts(t *testing.T) {
	sys, _ := runChase(t, core.Options{
		HeapLimit:  16 << 20,
		Monitoring: true,
		// SamplingInterval 0 selects auto mode.
	})
	// Auto mode must have retargeted the interval away from the
	// default configuration.
	if iv := sys.Module.Interval(); iv == 100_000 {
		t.Errorf("interval never adapted: %d", iv)
	}
	st := sys.Monitor.Stats()
	if st.Polls < 3 {
		t.Errorf("polls = %d", st.Polls)
	}
}

func TestTimeSeriesRecorded(t *testing.T) {
	sys, fpay := runChase(t, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
	})
	fc := sys.Monitor.Field(fpay)
	if fc == nil {
		t.Fatal("no field counter")
	}
	if fc.Series.Len() < 2 || fc.RateSeries.Len() != fc.Series.Len() {
		t.Fatalf("series lengths: %d raw, %d rate", fc.Series.Len(), fc.RateSeries.Len())
	}
	// The cumulative series must be monotonically non-decreasing.
	prev := 0.0
	for _, s := range fc.Series.Cumulative().Samples {
		if s.Value < prev {
			t.Fatal("cumulative series decreased")
		}
		prev = s.Value
	}
}

func TestTrackFieldsFilter(t *testing.T) {
	u := classfile.NewUniverse()
	main, fpay := chaseProgram(u)
	u.Layout()
	sys, err := core.NewSystemOpts(u, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
		TrackFields:      []string{"Other::field"},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := make(runtime.CompilePlan)
	for _, m := range u.Methods() {
		if m.Code != nil {
			plan[m.ID] = 2
		}
	}
	if err := sys.Boot(plan, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(main, 0); err != nil {
		t.Fatal(err)
	}
	fc := sys.Monitor.Field(fpay)
	if fc == nil {
		t.Skip("no samples attributed in this configuration")
	}
	if fc.Series.Len() != 0 {
		t.Error("untracked field recorded a series")
	}
	if fc.Samples == 0 {
		t.Error("counters must still accumulate for untracked fields")
	}
}

func TestMonitoringOverheadCharged(t *testing.T) {
	base, _ := runChase(t, core.Options{HeapLimit: 16 << 20})
	mon, _ := runChase(t, core.Options{HeapLimit: 16 << 20, Monitoring: true, SamplingInterval: 1000})
	if mon.VM.Cycles() <= base.VM.Cycles() {
		t.Errorf("monitoring run not slower: %d vs %d", mon.VM.Cycles(), base.VM.Cycles())
	}
	if mon.Monitor.Stats().MonitorCycles == 0 {
		t.Error("monitor cycles not accounted")
	}
}

func TestSpaceClassification(t *testing.T) {
	sys, _ := runChase(t, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
	})
	st := sys.Monitor.Stats()
	total := st.SamplesNursery + st.SamplesMature + st.SamplesLOS + st.SamplesImmortal + st.SamplesOther
	if total != st.SamplesDecoded {
		t.Fatalf("space classification incomplete: %d of %d", total, st.SamplesDecoded)
	}
	// The chase program's misses are dominated by promoted (mature)
	// payload arrays plus the LOS node table.
	if st.SamplesMature == 0 {
		t.Errorf("no mature-space samples: %+v", st)
	}
}

func TestPhaseChangeDetection(t *testing.T) {
	// A program with a quiet phase followed by a missy phase must
	// produce a phase-change event for the hot field.
	u := classfile.NewUniverse()
	node := u.DefineClass("PNode", nil)
	fpay := u.AddField(node, "payload", kRef)
	cl := u.DefineClass("Main", nil)
	main := u.AddMethod(cl, "main", false, nil, kVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("nodes", kRef)
	b.Local("i", kInt)
	b.Local("j", kInt)
	b.Local("sum", kInt)
	b.Local("t", kRef)
	b.Const(6000).NewArray(u.RefArray).Store("nodes")
	b.Label("mk")
	b.Load("i").Const(6000).If(bytecode.OpIfGE, "missy")
	b.New(node).Store("t")
	b.Load("t").Const(48).NewArray(u.IntArray).PutField(fpay)
	b.Load("nodes").Load("i").Load("t").AStore(kRef)
	b.Inc("i", 1)
	b.Goto("mk")
	// Two phases of pointer chasing at very different intensities:
	// phase A interleaves sparse walks with long arithmetic pauses
	// (low miss rate); phase B chases densely back to back, for long
	// enough that the default poll bounds close two full rate windows
	// inside it.
	b.Local("p", kInt)
	b.Label("missy")
	b.Const(0).Store("j")
	b.Label("roundsA")
	b.Load("j").Const(60).If(bytecode.OpIfGE, "phaseB")
	b.Const(0).Store("i")
	b.Label("walkA")
	b.Load("i").Const(6000).If(bytecode.OpIfGE, "pause")
	b.Load("sum").Load("nodes").Load("i").ALoad(kRef).GetField(fpay).Const(0).ALoad(kInt).Add().Store("sum")
	b.Load("i").Const(37).Add().Store("i")
	b.Goto("walkA")
	b.Label("pause")
	b.Const(0).Store("p")
	b.Label("spin")
	b.Load("p").Const(60_000).If(bytecode.OpIfGE, "jnA")
	b.Load("sum").Load("p").Add().Store("sum")
	b.Inc("p", 1)
	b.Goto("spin")
	b.Label("jnA")
	b.Inc("j", 1)
	b.Goto("roundsA")
	b.Label("phaseB")
	b.Const(0).Store("j")
	b.Label("roundsB")
	b.Load("j").Const(400).If(bytecode.OpIfGE, "done")
	b.Const(0).Store("i")
	b.Label("walkB")
	b.Load("i").Const(6000).If(bytecode.OpIfGE, "jnB")
	b.Load("sum").Load("nodes").Load("i").ALoad(kRef).GetField(fpay).Const(0).ALoad(kInt).Add().Store("sum")
	b.Load("i").Const(7).Add().Store("i")
	b.Goto("walkB")
	b.Label("jnB")
	b.Inc("j", 1)
	b.Goto("roundsB")
	b.Label("done")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	sys, err := core.NewSystemOpts(u, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := make(runtime.CompilePlan)
	for _, m := range u.Methods() {
		if m.Code != nil {
			plan[m.ID] = 2
		}
	}
	if err := sys.Boot(plan, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(main, 0); err != nil {
		t.Fatal(err)
	}
	events := sys.Monitor.PhaseEvents()
	if len(events) == 0 {
		fc := sys.Monitor.Field(fpay)
		if fc != nil {
			t.Logf("rate series: %v", fc.RateSeries.Values())
		}
		t.Fatal("no phase change detected between quiet and missy phases")
	}
	t.Logf("phase events: %v", events)
}

func TestAlternativeEvents(t *testing.T) {
	// The P4 PEBS can sample L1, L2 or DTLB misses — one at a time
	// (§4.1). The attribution pipeline must work for each event kind.
	for _, ev := range []cache.EventKind{cache.EventL2Miss, cache.EventDTLBMiss} {
		sys, fpay := runChase(t, core.Options{
			HeapLimit:        16 << 20,
			Monitoring:       true,
			SamplingInterval: 200,
			Event:            ev,
		})
		if sys.Monitor.Stats().SamplesDecoded == 0 {
			t.Errorf("%v: no samples decoded", ev)
			continue
		}
		if fc := sys.Monitor.Field(fpay); fc == nil || fc.Samples == 0 {
			t.Errorf("%v: nothing attributed to the hot field", ev)
		}
	}
}

// TestReportTopNClamp is the regression test for the Report slicing
// bug: topN below zero used to slice hf[:topN] and panic. Negative
// values now mean the same as zero (no hot-field listing), and values
// beyond the list length list everything.
func TestReportTopNClamp(t *testing.T) {
	sys, _ := runChase(t, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 2000,
	})
	if len(sys.Monitor.HotFields()) == 0 {
		t.Fatal("no hot fields; the clamp needs a non-empty listing to bite")
	}

	neg := sys.Monitor.Report(-3) // panicked before the clamp
	zero := sys.Monitor.Report(0)
	if neg != zero {
		t.Errorf("Report(-3) != Report(0):\n%q\nvs\n%q", neg, zero)
	}
	if strings.Contains(zero, "#1") {
		t.Errorf("Report(0) lists fields:\n%s", zero)
	}

	one := sys.Monitor.Report(1)
	if !strings.Contains(one, "#1") {
		t.Errorf("Report(1) lists nothing:\n%s", one)
	}
	if strings.Contains(one, "#2") {
		t.Errorf("Report(1) lists more than one field:\n%s", one)
	}
	// A bound far beyond the list length is not an error either.
	if huge := sys.Monitor.Report(1 << 20); !strings.Contains(huge, "#1") {
		t.Errorf("Report(1<<20) lists nothing:\n%s", huge)
	}
}
