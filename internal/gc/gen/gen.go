// Package gen is the generational front half both collectors share
// (MMTk's generational plan, §5.1): the Appel-style variable-size
// nursery, the reference-store write barrier with its remembered set,
// the large-object space, the heap budget, and the minor collection
// with its escalation to a major one. What differs between GenMS and
// GenCopy — where a survivor is copied to, what the mature space
// charges against the budget, how it is collected — sits behind the
// three-method Mature interface, so Figure 6 compares mature spaces and
// nothing else. (It cannot live in gc/heap, which vm/runtime imports.)
package gen

import (
	"fmt"

	"hpmvm/internal/gc/heap"
	"hpmvm/internal/obs"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// Config sizes a collector.
type Config struct {
	// HeapLimit is the total heap budget in bytes (nursery + mature +
	// LOS), the knob the paper sweeps from 1x to 4x the minimum.
	HeapLimit uint64
	// MinNursery and MaxNursery bound the Appel-style nursery.
	MinNursery uint64
	MaxNursery uint64
	// PerObjectCycles is the bookkeeping cost charged per object
	// processed during tracing (on top of the real memory traffic).
	PerObjectCycles uint64
}

// DefaultConfig returns a config with the given heap limit.
func DefaultConfig(heapLimit uint64) Config {
	return Config{
		HeapLimit:       heapLimit,
		MinNursery:      256 * 1024,
		MaxNursery:      1024 * 1024,
		PerObjectCycles: 12,
	}
}

// Counters is the collector activity both mature spaces share; each
// collector's Stats embeds it.
type Counters struct {
	MinorGCs        uint64
	MajorGCs        uint64
	PromotedObjects uint64
	PromotedBytes   uint64
	GCCycles        uint64 // simulated cycles spent collecting
	BarrierRecords  uint64 // remembered-set insertions
}

// Mature is the mature space of a generational collector.
type Mature interface {
	// Promote copies the not yet forwarded nursery object obj into the
	// mature space — through Heap.Evacuate, once per object it moves —
	// and returns obj's new address.
	Promote(obj uint64) uint64
	// Footprint is what the space charges against the heap budget.
	Footprint() uint64
	// Collect is the space's share of a major collection; the nursery
	// is empty when it runs. It leaves FlagMark set on exactly the live
	// large objects: the heap sweeps the large-object space afterwards.
	Collect()
}

// Heap is the front half. A collector embeds it, hands itself to Init
// as the Mature and installs itself as the VM's collector.
type Heap struct {
	VM  *runtime.VM
	Cfg Config

	// Nursery, LOS, Remset and Counters are the serialized state; each
	// collector's snapshot walk spells them in its own recorded order.
	Nursery *heap.BumpSpace
	LOS     *heap.LargeObjectSpace
	// Remset holds the slots outside the nursery that were stored a
	// nursery reference, in insertion order — the order the next minor
	// collection scans them in.
	Remset []uint64
	Counters

	name   string
	mature Mature
	gray   []uint64 // promoted, not yet scanned (LIFO)

	// obs, when non-nil, receives EvGCStart/EvGCEnd events and
	// "gc.minor"/"gc.major" phase timings per collection (nil-gated).
	obs *obs.Observer
}

// Init wires the front half into vm over the mature space m: it sizes
// the nursery against m's initial footprint and installs the write
// barrier.
func (h *Heap) Init(vm *runtime.VM, cfg Config, name string, m Mature) {
	*h = Heap{
		VM: vm, Cfg: cfg, name: name, mature: m,
		Nursery: heap.NewBumpSpace("nursery", heap.NurseryBase, heap.NurseryEnd),
		LOS:     heap.NewLOS(heap.LOSBase, heap.LOSEnd),
	}
	h.resizeNursery()
	vm.CPU.Barrier = h.barrier
}

// SetObserver attaches the observability layer: the shared counters are
// registered as sampled counters and every collection is traced with
// start/end events and a phase timing. Passing nil detaches.
func (h *Heap) SetObserver(o *obs.Observer) {
	h.obs = o
	if o == nil {
		return
	}
	o.RegisterSampled("gc.minor", func() uint64 { return h.MinorGCs })
	o.RegisterSampled("gc.major", func() uint64 { return h.MajorGCs })
	o.RegisterSampled("gc.promoted_objects", func() uint64 { return h.PromotedObjects })
	o.RegisterSampled("gc.promoted_bytes", func() uint64 { return h.PromotedBytes })
	o.RegisterSampled("gc.cycles", func() uint64 { return h.GCCycles })
	o.RegisterSampled("gc.barrier_records", func() uint64 { return h.BarrierRecords })
}

// Name implements runtime.Collector.
func (h *Heap) Name() string { return h.name }

// HeapLimit implements runtime.Collector.
func (h *Heap) HeapLimit() uint64 { return h.Cfg.HeapLimit }

// Collections implements runtime.Collector.
func (h *Heap) Collections() (minor, major uint64) { return h.MinorGCs, h.MajorGCs }

// barrier is the reference-store write barrier: remember slots outside
// the nursery that point into it.
func (h *Heap) barrier(slot, value uint64) {
	if heap.InImmortal(slot) && (heap.InNursery(value) || heap.InMature(value) || heap.InLOS(value)) {
		// Immortal objects are immutable after setup by design
		// (DESIGN.md §7): the collectors do not scan the immortal
		// space, so such a store would create an untraced edge.
		panic(fmt.Sprintf("%s: reference store into immortal object (slot %#x <- %#x)", h.name, slot, value))
	}
	if heap.InNursery(value) && !heap.InNursery(slot) {
		h.Remset = append(h.Remset, slot)
		h.BarrierRecords++
		h.VM.CPU.AddCycles(4)
	}
}

// Alloc implements runtime.Collector.
func (h *Heap) Alloc(size uint64) uint64 {
	if size > runtime.LargeObjectThreshold {
		return h.allocLarge(size)
	}
	if a := h.Nursery.Alloc(size); a != 0 {
		return a
	}
	h.MinorGC()
	// Zero when the nursery could not be regrown: the heap is full.
	return h.Nursery.Alloc(size)
}

func (h *Heap) allocLarge(size uint64) uint64 {
	need := (size + heap.LOSPageSize - 1) &^ (heap.LOSPageSize - 1)
	if !h.fits(need) {
		h.MinorGC()
		h.MajorGC()
		if !h.fits(need) {
			return 0
		}
	}
	return h.LOS.Alloc(size)
}

// fits reports whether extra more bytes still leave room for the
// smallest nursery.
func (h *Heap) fits(extra uint64) bool { return extra+h.Cfg.MinNursery <= h.free() }

// free is the budget not yet spoken for: the limit less the mature
// space's footprint (claimed free-list blocks, so fragmentation counts,
// §6.3; both semispaces, the copy reserve) and the live LOS pages.
func (h *Heap) free() uint64 {
	if used := h.mature.Footprint() + h.LOS.Used(); used < h.Cfg.HeapLimit {
		return h.Cfg.HeapLimit - used
	}
	return 0
}

// resizeNursery applies the Appel policy: the nursery gets half the
// free budget, clamped to [MinNursery, MaxNursery] and to its address
// range. It returns false if even MinNursery does not fit.
func (h *Heap) resizeNursery() bool {
	free := h.free()
	if free == 0 || free < h.Cfg.MinNursery {
		return false
	}
	n := max(min(free/2, h.Cfg.MaxNursery), h.Cfg.MinNursery)
	h.Nursery.SetSoftLimit(min(n, heap.NurseryEnd-heap.NurseryBase) &^ 7)
	return true
}

// gcGen values for EvGCStart/EvGCEnd Arg0.
const (
	genMinor = 0
	genMajor = 1
)

// collection brackets one collection: it is counted, its simulated
// cycles go to GCCycles, and the observer (if any) sees it start and
// end.
func (h *Heap) collection(gen uint64, phase string, count *uint64, body func()) {
	start := h.VM.CPU.Cycles()
	*count++
	if h.obs != nil {
		h.obs.Emit(obs.EvGCStart, start, gen, 0, 0)
		h.obs.PhaseBegin(phase, start)
	}
	body()
	end := h.VM.CPU.Cycles()
	h.GCCycles += end - start
	if h.obs != nil {
		h.obs.Emit(obs.EvGCEnd, end, gen, end-start, 0)
		h.obs.PhaseEnd(phase, end)
	}
}

// MinorGC evacuates the nursery: every survivor is promoted into the
// mature space. It escalates to a major collection when the budget no
// longer holds a nursery.
func (h *Heap) MinorGC() {
	h.collection(genMinor, "gc.minor", &h.MinorGCs, h.evacuate)
	if h.resizeNursery() {
		return
	}
	h.MajorGC()
	if h.resizeNursery() {
		return
	}
	// Even a major collection could not free enough budget: hand out
	// whatever remains, or close the nursery so the next allocation
	// reports OOM.
	rest := h.free() &^ 7
	if rest < 4096 {
		rest = 0
	}
	h.Nursery.SetSoftLimit(rest)
}

// MajorGC collects the mature space, then sweeps the large-object
// space by the marks the collection left. It must run with an empty
// nursery, so it is always preceded by MinorGC.
func (h *Heap) MajorGC() {
	h.collection(genMajor, "gc.major", &h.MajorGCs, func() {
		h.mature.Collect()
		// Objects lists in address order, so large objects are freed —
		// and their runs later reused — in an order no map decides.
		for _, obj := range h.LOS.Objects() {
			if !h.ClearMark(obj) {
				h.LOS.Free(obj)
			}
		}
	})
}

func (h *Heap) evacuate() {
	vm := h.VM
	// Roots: thread stacks and registers.
	for _, r := range vm.CollectRoots() {
		if v := vm.RootGet(r); heap.InNursery(v) {
			vm.RootSet(r, h.forward(v))
		}
	}
	update := func(slot uint64) {
		if v := vm.CPU.LoadWord(slot); heap.InNursery(v) {
			vm.CPU.StoreWord(slot, h.forward(v))
		}
	}
	// Remembered set: mature/LOS slots that point into the nursery.
	for _, slot := range h.Remset {
		update(slot)
	}
	h.Remset = h.Remset[:0]
	// Transitive closure over the promoted objects.
	for len(h.gray) > 0 {
		obj := h.gray[len(h.gray)-1]
		h.gray = h.gray[:len(h.gray)-1]
		vm.CPU.AddCycles(h.Cfg.PerObjectCycles)
		vm.ForEachRef(obj, update)
	}
	h.Nursery.Reset()
}

// forward returns the mature address of the nursery object obj,
// promoting it on first sight.
func (h *Heap) forward(obj uint64) uint64 {
	if to, ok := h.VM.Forwarded(obj); ok {
		return to
	}
	return h.mature.Promote(obj)
}

// Evacuate moves the size-byte nursery object obj to dst on behalf of
// Mature.Promote: copy, forwarding pointer, promotion counters, and the
// copy queued for scanning.
func (h *Heap) Evacuate(obj, dst, size uint64) {
	h.VM.CopyObject(dst, obj, size)
	h.VM.SetForwarding(obj, dst)
	h.PromotedObjects++
	h.PromotedBytes += size
	h.gray = append(h.gray, dst)
}

// ClearMark clears and returns the mark bit of the object at addr.
func (h *Heap) ClearMark(addr uint64) bool {
	fl := h.VM.FlagsOf(addr)
	if fl&classfile.FlagMark == 0 {
		return false
	}
	h.VM.SetFlags(addr, fl&^classfile.FlagMark)
	return true
}
