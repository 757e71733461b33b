package gen

import (
	"slices"
	"testing"

	"hpmvm/internal/gc/heap"
	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/obs"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/mcmap"
	"hpmvm/internal/vm/runtime"
)

// bumpMature is the fake mature space the front half is tested over: a
// bump space that never frees, a footprint the test sets by hand, and a
// Collect that only counts (and runs the test's hook).
type bumpMature struct {
	Heap
	space     *heap.BumpSpace
	footprint uint64
	collects  int
	onCollect func()
}

func (m *bumpMature) Promote(obj uint64) uint64 {
	size := m.VM.SizeOf(obj)
	dst := m.space.Alloc(size)
	m.Evacuate(obj, dst, size)
	return dst
}

func (m *bumpMature) Footprint() uint64 { return m.footprint }

func (m *bumpMature) Collect() {
	m.collects++
	if m.onCollect != nil {
		m.onCollect()
	}
}

const (
	testPC   = 0x10_0000
	testFP   = heap.StackTop - 64
	rootSlot = testFP - 8 // frame slot 0 of the fake GC point
)

// fixture is a VM stopped at a fake GC point whose frame has one
// reference slot (rootSlot), under a front half over a bumpMature that
// already charges footprint against the budget.
type fixture struct {
	*bumpMature
	node *classfile.Class // 24-byte scalar with one reference field
	next uint64           // its offset
}

func newFixture(heapLimit, footprint uint64) fixture {
	u := classfile.NewUniverse()
	node := u.DefineClass("Node", nil)
	next := u.AddField(node, "next", classfile.KindRef)
	u.Layout()
	vm := runtime.New(u, cache.DefaultP4())
	vm.Table.Register(&mcmap.MCMap{
		Start: testPC, End: testPC + cpu.InstrBytes, FrameSlots: 1,
		GCPoints: []mcmap.GCPoint{{PC: testPC, RefSlots: 1}},
	})
	vm.CPU.PC, vm.CPU.FP = testPC, testFP

	m := &bumpMature{space: heap.NewBumpSpace("mature", heap.MatureBase, heap.MatureEnd), footprint: footprint}
	m.Init(vm, heapLimit, "Fake", m)
	vm.Collector = m
	return fixture{bumpMature: m, node: node, next: next.Offset}
}

// newNode allocates a Node through the collector and writes its header.
func (f fixture) newNode(t *testing.T) uint64 {
	t.Helper()
	addr := f.Alloc(f.node.InstanceSize)
	if addr == 0 {
		t.Fatal("nursery allocation failed")
	}
	f.VM.Mem.Write4(addr+classfile.OffClassID, uint32(f.node.ID))
	return addr
}

func TestResizeNursery(t *testing.T) {
	const kb, mb = 1 << 10, 1 << 20
	for _, tc := range []struct {
		name             string
		limit, footprint uint64
		los              uint64 // one large object of this size, allocated first
		wantOK           bool
		want             uint64
	}{
		{name: "half the free budget", limit: 3 * mb, footprint: 2 * mb, wantOK: true, want: 512 * kb},
		{name: "LOS pages count as used", limit: 3 * mb, footprint: mb, los: mb, wantOK: true, want: 512 * kb},
		{name: "MaxNursery clamp", limit: 64 * mb, wantOK: true, want: maxNursery},
		{name: "MinNursery clamp", limit: 2*mb + minNursery + 44*kb, footprint: 2 * mb, wantOK: true, want: minNursery},
		{name: "exactly MinNursery left", limit: 2*mb + minNursery, footprint: 2 * mb, wantOK: true, want: minNursery},
		{name: "refused below MinNursery", limit: 2*mb + minNursery - 8, footprint: 2 * mb},
		{name: "refused when the budget is spent", limit: 2 * mb, footprint: 2 * mb},
		{name: "refused when the budget is overdrawn", limit: 2 * mb, footprint: 3 * mb},
		{name: "rounded down to 8 bytes", limit: 2*mb + 600*kb + 12, footprint: 2 * mb, wantOK: true, want: 300 * kb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(1<<30, 0)
			if tc.los != 0 && f.LOS.Alloc(tc.los) == 0 {
				t.Fatal("LOS allocation failed")
			}
			f.heapLimit, f.footprint = tc.limit, tc.footprint
			const untouched = 8 * kb
			f.Nursery.SetSoftLimit(untouched)
			if ok := f.resizeNursery(); ok != tc.wantOK {
				t.Fatalf("resizeNursery() = %v, want %v", ok, tc.wantOK)
			}
			want := tc.want
			if !tc.wantOK {
				want = untouched // a refusal leaves the nursery as it was
			}
			if got := f.Nursery.SoftSize(); got != want {
				t.Errorf("nursery size %d, want %d", got, want)
			}
		})
	}
}

func TestBarrier(t *testing.T) {
	f := newFixture(8<<20, 0)
	barrier := f.VM.CPU.Barrier
	const (
		young, young2 = heap.NurseryBase + 64, heap.NurseryBase + 128
		old, old2     = heap.MatureBase + 64, heap.MatureBase + 128
		large         = heap.LOSBase + 64
		immortal      = heap.ImmortalBase + 64
	)
	for _, tc := range []struct {
		name        string
		slot, value uint64
		recorded    bool
	}{
		{"old <- young", old, young, true},
		{"large <- young", large, young, true},
		{"stack <- young", rootSlot, young, true},
		{"young <- young", young, young2, false},
		{"young <- old", young, old, false},
		{"old <- old", old, old2, false},
		{"old <- null", old, 0, false},
		{"immortal <- immortal", immortal, immortal + 64, false},
		{"immortal <- null", immortal, 0, false},
	} {
		records, cycles := f.BarrierRecords, f.VM.CPU.Cycles()
		barrier(tc.slot, tc.value)
		wantRecords, wantCycles := records, cycles
		if tc.recorded {
			wantRecords, wantCycles = records+1, cycles+4
			if f.Remset[len(f.Remset)-1] != tc.slot {
				t.Errorf("%s: remembered %#x, want the slot %#x", tc.name, f.Remset[len(f.Remset)-1], tc.slot)
			}
		}
		if f.BarrierRecords != wantRecords || uint64(len(f.Remset)) != wantRecords || f.VM.CPU.Cycles() != wantCycles {
			t.Errorf("%s: %d records (remset %d), %d cycles; want %d records, %d cycles",
				tc.name, f.BarrierRecords, len(f.Remset), f.VM.CPU.Cycles(), wantRecords, wantCycles)
		}
	}
	// The collectors never scan the immortal space, so a store that
	// would make it point into the collected heap must not go through.
	for _, value := range []uint64{young, old, large} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("store of %#x into an immortal object did not panic", value)
				}
			}()
			barrier(immortal, value)
		}()
	}
}

// TestMinorGCEvacuates drives one minor collection over a hand-built
// graph: root -> a -> b in the nursery, and a mature object whose
// remembered slot is the only reference to c.
func TestMinorGCEvacuates(t *testing.T) {
	f := newFixture(8<<20, 0)
	o := obs.New(0)
	f.SetObserver(o)
	mem, size := f.VM.Mem, f.node.InstanceSize

	a, b, c := f.newNode(t), f.newNode(t), f.newNode(t)
	f.newNode(t) // unreachable: must not be promoted
	mem.Write8(a+f.next, b)
	mem.Write8(rootSlot, a)
	oldObj := f.space.Alloc(size)
	mem.Write4(oldObj+classfile.OffClassID, uint32(f.node.ID))
	mem.Write8(oldObj+f.next, c)
	f.VM.CPU.Barrier(oldObj+f.next, c)

	before := f.VM.CPU.Cycles()
	f.MinorGC()

	a2, c2 := mem.Read8(rootSlot), mem.Read8(oldObj+f.next)
	b2 := mem.Read8(a2 + f.next)
	for _, p := range []uint64{a2, b2, c2} {
		if !f.space.Contains(p) {
			t.Fatalf("survivor at %#x is not in the mature space", p)
		}
	}
	if slices.Contains([]uint64{a2, b2, c2}, oldObj) || a2 == b2 || b2 == c2 || a2 == c2 {
		t.Fatalf("survivors alias: a=%#x b=%#x c=%#x old=%#x", a2, b2, c2, oldObj)
	}
	want := Counters{
		MinorGCs: 1, PromotedObjects: 3, PromotedBytes: 3 * size,
		GCCycles: f.VM.CPU.Cycles() - before, BarrierRecords: 1,
	}
	if f.Counters != want {
		t.Errorf("counters %+v, want %+v", f.Counters, want)
	}
	if f.GCCycles < 3*PerObjectCycles {
		t.Errorf("%d GC cycles do not cover PerObjectCycles for three objects", f.GCCycles)
	}
	if len(f.Remset) != 0 || f.Nursery.Used() != 0 || len(f.gray) != 0 {
		t.Errorf("after the collection: remset %d, nursery %d bytes, gray %d; want all empty",
			len(f.Remset), f.Nursery.Used(), len(f.gray))
	}
	if f.collects != 0 {
		t.Errorf("a minor collection with room to spare ran %d major collections", f.collects)
	}

	// What the observer saw: one traced collection, the shared counters.
	m := o.Metrics()
	if len(m.Phases) != 1 || m.Phases[0] != (obs.PhaseStat{Name: "gc.minor", Count: 1, Cycles: f.GCCycles}) {
		t.Errorf("phases %+v, want one gc.minor of %d cycles", m.Phases, f.GCCycles)
	}
	ev := o.Events()
	if len(ev) != 2 || ev[0].Kind != obs.EvGCStart || ev[1].Kind != obs.EvGCEnd || ev[1].Arg1 != f.GCCycles {
		t.Errorf("events %+v, want EvGCStart then EvGCEnd carrying %d cycles", ev, f.GCCycles)
	}
	for name, want := range map[string]uint64{
		"gc.minor": 1, "gc.major": 0, "gc.promoted_objects": 3, "gc.promoted_bytes": 3 * size,
		"gc.cycles": f.GCCycles, "gc.barrier_records": 1,
	} {
		if got, ok := o.Get(name); !ok || got != want {
			t.Errorf("counter %s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
}

// fill allocates Nodes until the nursery is full, so the next Alloc
// collects.
func (f fixture) fill(t *testing.T) {
	t.Helper()
	for f.Nursery.Used()+f.node.InstanceSize <= f.Nursery.SoftSize() {
		f.newNode(t)
	}
}

func TestEscalationToMajor(t *testing.T) {
	const mb = 1 << 20

	t.Run("major collection frees the budget", func(t *testing.T) {
		f := newFixture(4*mb, mb)
		f.fill(t)
		f.footprint = 4 * mb // the minor collection leaves no room for a nursery
		f.onCollect = func() { f.footprint = 2 * mb }
		if f.newNode(t); f.collects != 1 {
			t.Fatalf("%d major collections, want 1", f.collects)
		}
		if want := (Counters{MinorGCs: 1, MajorGCs: 1, GCCycles: f.GCCycles}); f.Counters != want {
			t.Errorf("counters %+v, want %+v", f.Counters, want)
		}
		if got := f.Nursery.SoftSize(); got != mb {
			t.Errorf("nursery reopened at %d bytes, want %d", got, mb)
		}
	})

	t.Run("nothing freed, the rest is handed out", func(t *testing.T) {
		f := newFixture(4*mb, mb)
		f.fill(t)
		f.footprint = 4*mb - 8200 // below minNursery, above a page
		if f.newNode(t); f.collects != 1 {
			t.Fatalf("%d major collections, want 1", f.collects)
		}
		if got := f.Nursery.SoftSize(); got != 8200&^7 {
			t.Errorf("nursery holds %d bytes, want the remaining %d", got, 8200&^7)
		}
	})

	t.Run("nothing freed, the nursery closes", func(t *testing.T) {
		f := newFixture(4*mb, mb)
		f.fill(t)
		f.footprint = 4*mb - 4000 // less than a page left
		if got := f.Alloc(f.node.InstanceSize); got != 0 {
			t.Fatalf("Alloc = %#x from an exhausted heap, want 0", got)
		}
		if f.collects != 1 || f.Nursery.SoftSize() != 0 {
			t.Errorf("%d major collections, nursery %d bytes; want 1 and a closed nursery", f.collects, f.Nursery.SoftSize())
		}
		// A closed nursery keeps answering 0, collecting each time it is asked.
		if got := f.Alloc(f.node.InstanceSize); got != 0 || f.MinorGCs != 2 {
			t.Errorf("second Alloc = %#x after %d minor collections, want 0 after 2", got, f.MinorGCs)
		}
	})
}

func TestAllocLarge(t *testing.T) {
	const mb = 1 << 20
	size := uint64(runtime.LargeObjectThreshold + 8)

	f := newFixture(4*mb, mb)
	if a := f.Alloc(size); !heap.InLOS(a) || f.MinorGCs != 0 {
		t.Fatalf("Alloc(%d) = %#x after %d collections, want a LOS address and none", size, a, f.MinorGCs)
	}
	if a := f.Alloc(runtime.LargeObjectThreshold); !heap.InNursery(a) {
		t.Errorf("Alloc(%d) = %#x, want a nursery address: the threshold itself is small", runtime.LargeObjectThreshold, a)
	}

	// Room for the smallest nursery but not for two more pages beside
	// it: collect (the minor collection does not escalate), then retry.
	f.footprint = 4*mb - f.LOS.Used() - minNursery - heap.LOSPageSize
	f.onCollect = func() { f.footprint = mb }
	if a := f.Alloc(size); !heap.InLOS(a) {
		t.Fatalf("Alloc(%d) = %#x after collecting, want a LOS address", size, a)
	}
	if f.MinorGCs != 1 || f.MajorGCs != 1 {
		t.Errorf("%d minor + %d major collections before the retry, want 1 + 1", f.MinorGCs, f.MajorGCs)
	}

	// The sweep frees the (unmarked) large object, but the mature space
	// alone leaves no room: out of memory.
	f.footprint, f.onCollect = 4*mb-minNursery-heap.LOSPageSize, nil
	if a := f.Alloc(size); a != 0 {
		t.Errorf("Alloc(%d) = %#x with no budget left, want 0", size, a)
	}
}

// TestMajorGCSweepsLOS checks that a major collection frees exactly the
// unmarked large objects, clears the marks of the others, and releases
// the dead in address order: the LOS first-fits over its free runs in
// release order, so equal-sized requests get them back lowest first.
func TestMajorGCSweepsLOS(t *testing.T) {
	f := newFixture(64<<20, 0)
	size := uint64(runtime.LargeObjectThreshold + 8)
	var objs []uint64
	for i := 0; i < 12; i++ {
		a := f.Alloc(size)
		if !heap.InLOS(a) {
			t.Fatalf("Alloc(%d) = %#x, want a LOS address", size, a)
		}
		objs = append(objs, a)
	}
	live := []uint64{objs[3], objs[7]}
	f.onCollect = func() {
		for _, a := range live {
			f.VM.SetFlags(a, classfile.FlagMark)
		}
	}
	f.MajorGC()

	if got := f.LOS.Objects(); !slices.Equal(got, live) {
		t.Fatalf("live large objects %#x, want %#x", got, live)
	}
	for _, a := range live {
		if f.VM.FlagsOf(a)&classfile.FlagMark != 0 {
			t.Errorf("mark of %#x survived the sweep", a)
		}
	}
	var dead, reused []uint64
	for _, a := range objs {
		if !slices.Contains(live, a) {
			dead = append(dead, a)
			reused = append(reused, f.LOS.Alloc(size))
		}
	}
	if !slices.Equal(reused, dead) {
		t.Errorf("freed runs reused in order %#x, want address order %#x", reused, dead)
	}
}
