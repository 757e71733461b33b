package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterRegistry(t *testing.T) {
	o := New(8)
	c := o.Counter("gc.minor")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
	// Same name returns the same counter.
	if o.Counter("gc.minor") != c {
		t.Fatal("Counter did not return the registered instance")
	}
	var backing uint64 = 41
	o.RegisterSampled("cache.accesses", func() uint64 { return backing })
	backing++
	if v, ok := o.Get("cache.accesses"); !ok || v != 42 {
		t.Fatalf("sampled counter = %d,%v want 42,true", v, ok)
	}
	if v, ok := o.Get("gc.minor"); !ok || v != 3 {
		t.Fatalf("owned counter via Get = %d,%v want 3,true", v, ok)
	}
	if _, ok := o.Get("nope"); ok {
		t.Fatal("Get of unregistered name reported ok")
	}
}

func TestRegistryCollisionPanics(t *testing.T) {
	o := New(8)
	o.RegisterSampled("x", func() uint64 { return 0 })
	mustPanic(t, "sampled dup", func() { o.RegisterSampled("x", func() uint64 { return 0 }) })
	mustPanic(t, "owned over sampled", func() { o.Counter("x") })
	o.Counter("y")
	mustPanic(t, "sampled over owned", func() { o.RegisterSampled("y", func() uint64 { return 0 }) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestTraceRingWrap(t *testing.T) {
	o := New(4)
	for i := uint64(0); i < 7; i++ {
		o.Emit(EvGCStart, 100+i, i, 0, 0)
	}
	events := o.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	// Oldest-first: events 3,4,5,6 survive.
	for i, e := range events {
		if want := uint64(i + 3); e.Arg0 != want || e.Cycle != 100+want {
			t.Errorf("event[%d] = {cycle %d, arg0 %d}, want {cycle %d, arg0 %d}",
				i, e.Cycle, e.Arg0, 100+want, want)
		}
	}
	d := o.TraceDump()
	if d.Emitted != 7 || d.Dropped != 3 || d.Capacity != 4 {
		t.Fatalf("dump accounting = emitted %d dropped %d cap %d, want 7/3/4",
			d.Emitted, d.Dropped, d.Capacity)
	}
}

func TestPhases(t *testing.T) {
	o := New(8)
	o.PhaseBegin("gc.minor", 100)
	o.PhaseEnd("gc.minor", 150)
	o.PhaseBegin("gc.minor", 200)
	o.PhaseEnd("gc.minor", 230)
	o.PhaseEnd("gc.major", 999) // end without begin: ignored
	m := o.Metrics()
	if len(m.Phases) != 2 {
		t.Fatalf("phase count = %d, want 2", len(m.Phases))
	}
	// Sorted by name: gc.major first.
	if p := m.Phases[0]; p.Name != "gc.major" || p.Count != 0 || p.Cycles != 0 {
		t.Errorf("gc.major = %+v, want zero count/cycles", p)
	}
	if p := m.Phases[1]; p.Name != "gc.minor" || p.Count != 2 || p.Cycles != 80 {
		t.Errorf("gc.minor = %+v, want count 2 cycles 80", p)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	o := New(8)
	o.Counter("z.last")
	o.RegisterSampled("a.first", func() uint64 { return 1 })
	o.Counter("m.mid")
	m := o.Metrics()
	var names []string
	for _, c := range m.Counters {
		names = append(names, c.Name)
	}
	want := []string{"a.first", "m.mid", "z.last"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("counter order = %v, want %v", names, want)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	o := New(4)
	o.Counter("vm.recompiles").Add(5)
	o.RegisterSampled("cache.l1_misses", func() uint64 { return 12345 })
	o.PhaseBegin("gc.minor", 10)
	o.PhaseEnd("gc.minor", 40)
	o.Emit(EvCacheWindow, 40, 1000, 12, 9999)
	want := o.Metrics()

	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics round trip drifted:\n got  %+v\n want %+v", got, want)
	}
}

func TestMetricsJSONSchema(t *testing.T) {
	o := New(4)
	o.Counter("gc.minor").Inc()
	o.PhaseBegin("gc.minor", 1)
	o.PhaseEnd("gc.minor", 2)
	var buf bytes.Buffer
	if err := o.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The field names are the export schema downstream tooling keys on.
	for _, key := range []string{
		`"counters"`, `"phases"`, `"trace"`,
		`"name"`, `"value"`, `"count"`, `"cycles"`,
		`"capacity"`, `"emitted"`, `"dropped"`,
	} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("metrics JSON missing schema key %s:\n%s", key, buf.String())
		}
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	o := New(8)
	o.Emit(EvGCStart, 100, 0, 0, 0)
	o.Emit(EvPEBSInterrupt, 200, 1536, 1, 0)
	o.Emit(EvOptDecision, 300, 0, 7, DecisionIntervene)
	want := o.TraceDump()

	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind": "pebs_interrupt"`) {
		t.Errorf("trace JSON does not use stable kind names:\n%s", buf.String())
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace round trip drifted:\n got  %+v\n want %+v", got, want)
	}
}

// TestSnapshotEventsExportRoundTrip pins the export contract of the
// snapshot lifecycle event: a stable kind name on the wire and a
// loss-free JSON round trip, so downstream tooling can key on when
// checkpoints were taken.
func TestSnapshotEventsExportRoundTrip(t *testing.T) {
	o := New(8)
	o.Emit(EvSnapshotTaken, 1_500_000, 1_500_000, 12, 0)
	want := o.TraceDump()

	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if name := `"kind": "snapshot_taken"`; !strings.Contains(buf.String(), name) {
		t.Errorf("trace JSON missing stable kind name %s:\n%s", name, buf.String())
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot events JSON round trip drifted:\n got  %+v\n want %+v", got, want)
	}

}

func TestKindNamesComplete(t *testing.T) {
	// The retired co-allocation decision and divergent-restore kinds'
	// slots stay blank, so every later kind keeps its serialized number.
	retired := map[EventKind]bool{EvPhaseChange + 1: true, EvSnapshotTaken + 1: true}
	if EvRecompile != EvPhaseChange+2 || EvOptDecision != EvSnapshotTaken+2 || EvOptRevert != 12 {
		t.Fatalf("event kinds renumbered: recompile %d, opt_decision %d, opt_revert %d", EvRecompile, EvOptDecision, EvOptRevert)
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if retired[k] {
			if _, ok := KindFromString(name); ok || name != fmt.Sprintf("event_kind_%d", k) {
				t.Errorf("retired kind %d is named %q", k, name)
			}
			continue
		}
		if name == "" || strings.HasPrefix(name, "event_kind_") {
			t.Errorf("kind %d has no stable name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Errorf("KindFromString(%q) = %v,%v want %v,true", name, back, ok, k)
		}
	}
}

// TestConcurrentUse exercises the Observer from several goroutines the
// way an instrumented run plus a host-side snapshot consumer would
// (run under -race via the Makefile race target).
func TestConcurrentUse(t *testing.T) {
	o := New(64)
	c := o.Counter("shared")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				o.Emit(EvMonitorPoll, uint64(i), uint64(g), 0, 0)
				if i%100 == 0 {
					o.Metrics()
					o.PhaseBegin("p", uint64(i))
					o.PhaseEnd("p", uint64(i+1))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if d := o.TraceDump(); d.Emitted != 4000 || d.Dropped != 4000-64 {
		t.Fatalf("trace accounting = %d emitted %d dropped, want 4000/%d", d.Emitted, d.Dropped, 4000-64)
	}
}
