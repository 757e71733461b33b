// Package genms implements the generational mark-sweep collector the
// paper's optimization lives in (§5.1): bump-pointer allocation in an
// Appel-style variable-size nursery, promotion of survivors into a
// mark-and-sweep mature space managed by a 40-size-class free-list
// allocator, and a separate large-object space. During nursery tracing
// the collector consults a co-allocation advisor (driven by the HPM
// monitor's per-field cache-miss counts) and places hot parent/child
// object pairs into a single free-list cell so they share a cache line
// (§5.4).
package genms

import (
	"fmt"
	"sort"

	"hpmvm/internal/gc/freelist"
	"hpmvm/internal/gc/heap"
	"hpmvm/internal/obs"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// Advisor supplies co-allocation decisions. The production
// implementation (package coalloc) ranks reference fields by sampled
// cache misses; returning nil means "do not co-allocate for this
// class".
type Advisor interface {
	// HottestField returns the reference field of cl whose referent
	// should be co-allocated with the parent, or nil. gap is the
	// number of padding bytes to insert between parent and child
	// (normally 0; Figure 8 forces one cache line to demonstrate
	// online detection of a poor placement decision).
	HottestField(cl *classfile.Class) (f *classfile.Field, gap uint64)
	// CoallocationPerformed tells the advisor a pair was placed with
	// the given gap (for its per-placement-variant bookkeeping).
	CoallocationPerformed(f *classfile.Field, gap uint64)
}

// RankedAdvisor optionally extends Advisor with the full per-class
// candidate list of §5.4 ("the VM keeps a list of the reference fields
// for each class type sorted by number of associated cache misses"):
// when the hottest field's child is ineligible at promotion time
// (already forwarded, not in the nursery, or too large for a shared
// cell), the collector falls back to the next-ranked field.
type RankedAdvisor interface {
	Advisor
	// RankedFields returns cl's candidate reference fields hottest
	// first, with their placement gaps.
	RankedFields(cl *classfile.Class) []RankedField
}

// RankedField is one co-allocation candidate.
type RankedField struct {
	Field *classfile.Field
	Gap   uint64
}

// Config sizes the collector.
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

// Stats describes collector activity.
type Stats struct {
	MinorGCs        uint64
	MajorGCs        uint64
	PromotedObjects uint64
	PromotedBytes   uint64
	CoallocPairs    uint64 // §6.3 "number of co-allocated objects"
	CoallocBytes    uint64
	SweptCells      uint64
	GCCycles        uint64 // simulated cycles spent collecting
	BarrierRecords  uint64 // remembered-set insertions
	Fragmentation   float64
}

// Collector is the GenMS policy.
type Collector struct {
	vm  *runtime.VM
	cfg Config

	nursery *heap.BumpSpace
	mature  *freelist.Allocator
	los     *heap.LargeObjectSpace

	remset []uint64
	// pairs maps a co-allocated cell's parent address to the child
	// address inside the same cell, for sweeping.
	pairs map[uint64]uint64
	// ranges records every co-allocated cell for address
	// classification (sorted by start; rebuilt lazily after inserts).
	ranges      []pairRange
	rangesDirty bool

	advisor Advisor

	// obs, when non-nil, receives EvGCStart/EvGCEnd events and
	// "gc.minor"/"gc.major" phase timings per collection (nil-gated).
	obs *obs.Observer

	stats Stats
	queue []uint64
}

// New wires a GenMS collector into the VM (installs the write barrier).
func New(vm *runtime.VM, cfg Config) *Collector {
	c := &Collector{
		vm:      vm,
		cfg:     cfg,
		nursery: heap.NewBumpSpace("nursery", heap.NurseryBase, heap.NurseryEnd),
		mature:  freelist.New(heap.MatureBase, heap.MatureEnd),
		los:     heap.NewLOS(heap.LOSBase, heap.LOSEnd),
		pairs:   make(map[uint64]uint64),
	}
	c.resizeNursery()
	vm.CPU.Barrier = c.barrier
	vm.Collector = c
	return c
}

// SetAdvisor installs (or removes) the co-allocation advisor.
func (c *Collector) SetAdvisor(a Advisor) { c.advisor = a }

// SetObserver attaches the observability layer: the collector's
// counters are registered as sampled counters and every collection is
// traced with start/end events and a phase timing. Passing nil
// detaches.
func (c *Collector) SetObserver(o *obs.Observer) {
	c.obs = o
	if o == nil {
		return
	}
	o.RegisterSampled("gc.minor", func() uint64 { return c.stats.MinorGCs })
	o.RegisterSampled("gc.major", func() uint64 { return c.stats.MajorGCs })
	o.RegisterSampled("gc.promoted_objects", func() uint64 { return c.stats.PromotedObjects })
	o.RegisterSampled("gc.promoted_bytes", func() uint64 { return c.stats.PromotedBytes })
	o.RegisterSampled("gc.coalloc_pairs", func() uint64 { return c.stats.CoallocPairs })
	o.RegisterSampled("gc.coalloc_bytes", func() uint64 { return c.stats.CoallocBytes })
	o.RegisterSampled("gc.swept_cells", func() uint64 { return c.stats.SweptCells })
	o.RegisterSampled("gc.cycles", func() uint64 { return c.stats.GCCycles })
	o.RegisterSampled("gc.barrier_records", func() uint64 { return c.stats.BarrierRecords })
}

// gcGen values for EvGCStart/EvGCEnd Arg0.
const (
	genMinor = 0
	genMajor = 1
)

// pairRange describes one co-allocated cell for address classification.
type pairRange struct {
	start, end uint64
	gapped     bool
}

// ClassifyAddr reports whether addr falls inside a co-allocated cell
// and whether that cell used a gapped placement. The monitor uses this
// to attribute sampled misses to placement variants (§5.3: assessing
// the effect of individual optimization decisions).
func (c *Collector) ClassifyAddr(addr uint64) (coalloced, gapped bool) {
	if c.rangesDirty {
		sort.Slice(c.ranges, func(i, j int) bool { return c.ranges[i].start < c.ranges[j].start })
		c.rangesDirty = false
	}
	i := sort.Search(len(c.ranges), func(i int) bool { return c.ranges[i].end > addr })
	if i < len(c.ranges) && addr >= c.ranges[i].start {
		return true, c.ranges[i].gapped
	}
	return false, false
}

// Name implements runtime.Collector.
func (c *Collector) Name() string { return "GenMS" }

// HeapLimit implements runtime.Collector.
func (c *Collector) HeapLimit() uint64 { return c.cfg.HeapLimit }

// Collections implements runtime.Collector.
func (c *Collector) Collections() (minor, major uint64) {
	return c.stats.MinorGCs, c.stats.MajorGCs
}

// Stats returns a snapshot including current fragmentation.
func (c *Collector) Stats() Stats {
	s := c.stats
	s.Fragmentation = c.mature.Stats().InternalFragmentation()
	return s
}

// MatureUsedBytes returns live-cell bytes in the mature space.
func (c *Collector) MatureUsedBytes() uint64 { return c.mature.UsedBytes() }

// barrier is the reference-store write barrier: remember slots outside
// the nursery that point into it.
func (c *Collector) barrier(slot, value uint64) {
	if heap.InImmortal(slot) && (heap.InNursery(value) || heap.InMature(value) || heap.InLOS(value)) {
		// Immortal objects are immutable after setup by design
		// (DESIGN.md §7): the collectors do not scan the immortal
		// space, so such a store would create an untraced edge.
		panic(fmt.Sprintf("genms: reference store into immortal object (slot %#x <- %#x)", slot, value))
	}
	if heap.InNursery(value) && !heap.InNursery(slot) {
		c.remset = append(c.remset, slot)
		c.stats.BarrierRecords++
		c.vm.CPU.AddCycles(4)
	}
}

// Alloc implements runtime.Collector.
func (c *Collector) Alloc(size uint64) uint64 {
	if size > freelist.MaxCellSize {
		return c.allocLarge(size)
	}
	if a := c.nursery.Alloc(size); a != 0 {
		return a
	}
	c.MinorGC()
	if a := c.nursery.Alloc(size); a != 0 {
		return a
	}
	// The nursery could not be regrown; the heap is full.
	return 0
}

func (c *Collector) allocLarge(size uint64) uint64 {
	need := (size + heap.LOSPageSize - 1) &^ (heap.LOSPageSize - 1)
	if !c.budgetFits(need) {
		c.MinorGC()
		c.MajorGC()
		if !c.budgetFits(need) {
			return 0
		}
	}
	return c.los.Alloc(size)
}

func (c *Collector) budgetFits(extra uint64) bool {
	return c.usedBudget()+extra+c.cfg.MinNursery <= c.cfg.HeapLimit
}

// usedBudget charges claimed mature blocks (fragmentation counts
// against the budget, §6.3) plus live LOS pages.
func (c *Collector) usedBudget() uint64 {
	return c.mature.FootprintBytes() + c.los.Used()
}

// resizeNursery applies the Appel policy: the nursery gets half the
// free budget, clamped to [MinNursery, MaxNursery]. It returns false
// if even MinNursery does not fit.
func (c *Collector) resizeNursery() bool {
	used := c.usedBudget()
	if used >= c.cfg.HeapLimit {
		return false
	}
	n := (c.cfg.HeapLimit - used) / 2
	if n > c.cfg.MaxNursery {
		n = c.cfg.MaxNursery
	}
	if n < c.cfg.MinNursery {
		if c.cfg.HeapLimit-used < c.cfg.MinNursery {
			return false
		}
		n = c.cfg.MinNursery
	}
	if heap.NurseryBase+n > heap.NurseryEnd {
		n = heap.NurseryEnd - heap.NurseryBase
	}
	c.nursery.SetSoftLimit(n &^ 7)
	return true
}

// MinorGC evacuates the nursery: all survivors are promoted into the
// mature space, applying co-allocation along the way (§5.4). It may
// escalate to a major collection when the budget runs low.
func (c *Collector) MinorGC() {
	start := c.vm.CPU.Cycles()
	c.stats.MinorGCs++
	if c.obs != nil {
		c.obs.Emit(obs.EvGCStart, start, genMinor, 0, 0)
		c.obs.PhaseBegin("gc.minor", start)
	}
	vm := c.vm

	c.queue = c.queue[:0]

	// Roots: thread stacks and registers.
	roots := vm.CollectRoots()
	for _, r := range roots {
		v := vm.RootGet(r)
		if heap.InNursery(v) {
			vm.RootSet(r, c.promote(v))
		}
	}
	// Remembered set: mature/LOS/immortal slots that point into the
	// nursery.
	for _, slot := range c.remset {
		v := vm.CPU.LoadWord(slot)
		if heap.InNursery(v) {
			vm.CPU.StoreWord(slot, c.promote(v))
		}
	}
	c.remset = c.remset[:0]

	// Transitive closure over the promoted objects.
	for len(c.queue) > 0 {
		obj := c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		vm.CPU.AddCycles(c.cfg.PerObjectCycles)
		vm.ForEachRef(obj, func(slot uint64) {
			v := vm.CPU.LoadWord(slot)
			if heap.InNursery(v) {
				vm.CPU.StoreWord(slot, c.promote(v))
			}
		})
	}

	c.nursery.Reset()
	c.stats.GCCycles += c.vm.CPU.Cycles() - start
	if c.obs != nil {
		end := c.vm.CPU.Cycles()
		c.obs.Emit(obs.EvGCEnd, end, genMinor, end-start, 0)
		c.obs.PhaseEnd("gc.minor", end)
	}

	if !c.resizeNursery() {
		c.MajorGC()
		if !c.resizeNursery() {
			// Even a major collection could not free enough budget:
			// hand out whatever remains, or close the nursery so the
			// next allocation reports OOM.
			rest := uint64(0)
			if c.cfg.HeapLimit > c.usedBudget() {
				rest = (c.cfg.HeapLimit - c.usedBudget()) &^ 7
			}
			if rest < 4096 {
				rest = 0
			}
			c.nursery.SetSoftLimit(rest)
		}
	}
}

// promote copies a nursery object into the mature space (or, with a
// hot child, both objects into one cell) and returns the new address.
func (c *Collector) promote(obj uint64) uint64 {
	vm := c.vm
	if to, ok := vm.Forwarded(obj); ok {
		return to
	}
	cl := vm.ClassOf(obj)
	size := vm.SizeOf(obj)

	// Co-allocation (§5.4): if the class has a hot reference field and
	// the child is an un-promoted nursery object, request one cell for
	// both so they land on the same cache line. Advisors implementing
	// RankedAdvisor supply the full sorted candidate list; plain
	// advisors supply just the hottest field.
	if c.advisor != nil && !cl.IsArray {
		var candidates []RankedField
		if ra, ok := c.advisor.(RankedAdvisor); ok {
			candidates = ra.RankedFields(cl)
		} else if f, gap := c.advisor.HottestField(cl); f != nil {
			candidates = []RankedField{{Field: f, Gap: gap}}
		}
		for _, cand := range candidates {
			f, gap := cand.Field, cand.Gap
			child := vm.CPU.LoadWord(obj + f.Offset)
			if !heap.InNursery(child) {
				continue
			}
			if _, fwd := vm.Forwarded(child); fwd {
				continue
			}
			childSize := vm.SizeOf(child)
			total := size + gap + childSize
			if total > freelist.MaxCellSize {
				continue
			}
			cell := c.matureAlloc(total)
			if cell == 0 {
				break
			}
			childDst := cell + size + gap
			vm.CopyObject(cell, obj, size)
			vm.SetForwarding(obj, cell)
			vm.CopyObject(childDst, child, childSize)
			vm.SetForwarding(child, childDst)
			c.pairs[cell] = childDst
			c.ranges = append(c.ranges, pairRange{start: cell, end: cell + total, gapped: gap > 0})
			c.rangesDirty = true
			c.stats.CoallocPairs++
			c.stats.CoallocBytes += total
			c.stats.PromotedObjects += 2
			c.stats.PromotedBytes += size + childSize
			c.advisor.CoallocationPerformed(f, gap)
			c.queue = append(c.queue, cell, childDst)
			return cell
		}
	}

	dst := c.matureAlloc(size)
	if dst == 0 {
		panic(fmt.Sprintf("genms: mature space exhausted promoting %d bytes", size))
	}
	vm.CopyObject(dst, obj, size)
	vm.SetForwarding(obj, dst)
	c.stats.PromotedObjects++
	c.stats.PromotedBytes += size
	c.queue = append(c.queue, dst)
	return dst
}

func (c *Collector) matureAlloc(size uint64) uint64 {
	if a := c.mature.Alloc(size); a != 0 {
		return a
	}
	return 0
}

// MajorGC marks the whole mature and large-object population from the
// roots and sweeps dead cells back onto the free lists. Mature objects
// are never moved (§5.1: non-moving mark-sweep, better space
// efficiency, which co-allocation compensates for locality).
func (c *Collector) MajorGC() {
	start := c.vm.CPU.Cycles()
	c.stats.MajorGCs++
	if c.obs != nil {
		c.obs.Emit(obs.EvGCStart, start, genMajor, 0, 0)
		c.obs.PhaseBegin("gc.major", start)
	}
	vm := c.vm

	// Mark phase.
	var stack []uint64
	mark := func(obj uint64) {
		if !heap.InMature(obj) && !heap.InLOS(obj) {
			return
		}
		fl := vm.FlagsOf(obj)
		if fl&classfile.FlagMark != 0 {
			return
		}
		vm.SetFlags(obj, fl|classfile.FlagMark)
		stack = append(stack, obj)
	}
	for _, r := range vm.CollectRoots() {
		mark(vm.RootGet(r))
	}
	// Remembered slots live in mature objects that may otherwise be
	// unmarked yet; their contents are nursery refs (none right after a
	// minor GC) — nothing extra to do here because MajorGC always runs
	// with an empty nursery.
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vm.CPU.AddCycles(c.cfg.PerObjectCycles)
		vm.ForEachRef(obj, func(slot uint64) {
			mark(vm.CPU.LoadWord(slot))
		})
	}

	// Sweep the free-list space. A co-allocated cell survives if either
	// occupant is live (the paper's internal-fragmentation trade-off).
	freedPairs := make(map[uint64]bool)
	swept := c.mature.Sweep(func(cell uint64, cellSize uint64) bool {
		vm.CPU.AddCycles(2)
		live := c.clearMark(cell)
		if child, ok := c.pairs[cell]; ok {
			childLive := c.clearMark(child)
			if !live && !childLive {
				delete(c.pairs, cell)
				freedPairs[cell] = true
				return false
			}
			return true
		}
		return live
	})
	if len(freedPairs) > 0 {
		kept := c.ranges[:0]
		for _, r := range c.ranges {
			if !freedPairs[r.start] {
				kept = append(kept, r)
			}
		}
		c.ranges = kept
		c.rangesDirty = true
	}
	c.stats.SweptCells += uint64(swept)

	// Sweep the large-object space.
	for _, obj := range c.los.Objects() {
		if !c.clearMark(obj) {
			c.los.Free(obj)
		}
	}

	c.stats.GCCycles += c.vm.CPU.Cycles() - start
	if c.obs != nil {
		end := c.vm.CPU.Cycles()
		c.obs.Emit(obs.EvGCEnd, end, genMajor, end-start, 0)
		c.obs.PhaseEnd("gc.major", end)
	}
}

// clearMark clears and returns the mark bit of the object at addr.
func (c *Collector) clearMark(addr uint64) bool {
	fl := c.vm.FlagsOf(addr)
	if fl&classfile.FlagMark == 0 {
		return false
	}
	c.vm.SetFlags(addr, fl&^classfile.FlagMark)
	return true
}

// Pairs returns a snapshot of the live co-allocated cells as a map
// from parent address to child address (tests and diagnostics).
func (c *Collector) Pairs() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(c.pairs))
	for k, v := range c.pairs {
		out[k] = v
	}
	return out
}

// NurserySize returns the current nursery capacity (diagnostics).
func (c *Collector) NurserySize() uint64 { return c.nursery.SoftSize() }
