// Package genms implements the generational mark-sweep collector the
// paper's optimization lives in (§5.1). It is the shared generational
// front half (package gen: Appel-style nursery, write barrier,
// remembered set, large-object space, heap budget, minor collection)
// over a mark-and-sweep mature space managed by a 40-size-class
// free-list allocator. While promoting a survivor the mature space
// consults a co-allocation advisor (driven by the HPM monitor's
// per-field cache-miss counts) and places hot parent/child object pairs
// into a single free-list cell so they share a cache line (§5.4).
package genms

import (
	"fmt"
	"sort"

	"hpmvm/internal/gc/freelist"
	"hpmvm/internal/gc/gen"
	"hpmvm/internal/gc/heap"
	"hpmvm/internal/obs"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// Advisor supplies co-allocation decisions. The production
// implementation (package coalloc) ranks reference fields by sampled
// cache misses.
type Advisor interface {
	// Candidates returns the reference fields of cl whose referent
	// should be co-allocated with the parent, hottest first; none means
	// "do not co-allocate for this class". §5.4: "the VM keeps a list of
	// the reference fields for each class type sorted by number of
	// associated cache misses" — when the hottest field's child is
	// ineligible at promotion time (already forwarded, not in the
	// nursery, or too large for a shared cell), the collector falls
	// back to the next one.
	Candidates(cl *classfile.Class) []Candidate
	// CoallocationPerformed tells the advisor a pair was placed with
	// the given gap (for its per-placement-variant bookkeeping).
	CoallocationPerformed(f *classfile.Field, gap uint64)
}

// Candidate is one co-allocation candidate: a field and the number of
// padding bytes to insert between parent and child (normally 0; Figure
// 8 forces one cache line to demonstrate online detection of a poor
// placement decision).
type Candidate struct {
	Field *classfile.Field
	Gap   uint64
}

// Stats describes collector activity.
type Stats struct {
	gen.Counters
	CoallocPairs  uint64 // §6.3 "number of co-allocated objects"
	CoallocBytes  uint64
	SweptCells    uint64
	Fragmentation float64
}

// Collector is the GenMS policy: the generational front half over the
// free-list mature space.
type Collector struct {
	gen.Heap
	mature *freelist.Allocator

	// pairs maps a co-allocated cell's parent address to the child
	// address inside the same cell, for sweeping.
	pairs map[uint64]uint64
	// ranges records every co-allocated cell for address
	// classification (sorted by start; rebuilt lazily after inserts).
	ranges      []pairRange
	rangesDirty bool

	advisor Advisor

	coallocPairs, coallocBytes, sweptCells uint64
}

// New wires a GenMS collector with a heapLimit-byte budget into the VM
// (installs the write barrier).
func New(vm *runtime.VM, heapLimit uint64) *Collector {
	c := &Collector{
		mature: freelist.New(heap.MatureBase, heap.MatureEnd),
		pairs:  make(map[uint64]uint64),
	}
	c.Init(vm, heapLimit, "GenMS", c)
	vm.Collector = c
	return c
}

// SetAdvisor installs (or removes) the co-allocation advisor.
func (c *Collector) SetAdvisor(a Advisor) { c.advisor = a }

// SetObserver attaches the observability layer: the front half's
// counters and collection trace, plus the three counters only this
// mature space has. Passing nil detaches.
func (c *Collector) SetObserver(o *obs.Observer) {
	c.Heap.SetObserver(o)
	if o == nil {
		return
	}
	o.RegisterSampled("gc.coalloc_pairs", func() uint64 { return c.coallocPairs })
	o.RegisterSampled("gc.coalloc_bytes", func() uint64 { return c.coallocBytes })
	o.RegisterSampled("gc.swept_cells", func() uint64 { return c.sweptCells })
}

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

// Stats returns a snapshot including current fragmentation.
func (c *Collector) Stats() Stats {
	return Stats{
		Counters:      c.Counters,
		CoallocPairs:  c.coallocPairs,
		CoallocBytes:  c.coallocBytes,
		SweptCells:    c.sweptCells,
		Fragmentation: c.mature.Stats().InternalFragmentation(),
	}
}

// MatureUsedBytes returns live-cell bytes in the mature space.
func (c *Collector) MatureUsedBytes() uint64 { return c.mature.UsedBytes() }

// Footprint implements gen.Mature: claimed free-list blocks, so
// fragmentation counts against the budget (§6.3).
func (c *Collector) Footprint() uint64 { return c.mature.FootprintBytes() }

// Promote implements gen.Mature: it copies a nursery object into the
// mature space (or, with a hot child, both objects into one cell) and
// returns the new address.
func (c *Collector) Promote(obj uint64) uint64 {
	vm := c.VM
	cl := vm.ClassOf(obj)
	size := vm.SizeOf(obj)

	// Co-allocation (§5.4): if the class has a hot reference field and
	// the child is an un-promoted nursery object, request one cell for
	// both so they land on the same cache line.
	if c.advisor != nil && !cl.IsArray {
		for _, cand := range c.advisor.Candidates(cl) {
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
			cell := c.mature.Alloc(total)
			if cell == 0 {
				break
			}
			childDst := cell + size + gap
			c.Evacuate(obj, cell, size)
			c.Evacuate(child, childDst, childSize)
			c.pairs[cell] = childDst
			c.ranges = append(c.ranges, pairRange{start: cell, end: cell + total, gapped: gap > 0})
			c.rangesDirty = true
			c.coallocPairs++
			c.coallocBytes += total
			c.advisor.CoallocationPerformed(f, gap)
			return cell
		}
	}

	dst := c.mature.Alloc(size)
	if dst == 0 {
		panic(fmt.Sprintf("genms: mature space exhausted promoting %d bytes", size))
	}
	c.Evacuate(obj, dst, size)
	return dst
}

// Collect implements gen.Mature: it marks the whole mature and
// large-object population from the roots and sweeps dead cells back
// onto the free lists. Mature objects are never moved (§5.1: non-moving
// mark-sweep, better space efficiency, which co-allocation compensates
// for locality).
func (c *Collector) Collect() {
	vm := c.VM

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
	// unmarked yet; their contents are nursery refs — none here, because
	// a major collection always runs with an empty nursery.
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vm.CPU.AddCycles(gen.PerObjectCycles)
		vm.ForEachRef(obj, func(slot uint64) {
			mark(vm.CPU.LoadWord(slot))
		})
	}

	// Sweep the free-list space. A co-allocated cell survives if either
	// occupant is live (the paper's internal-fragmentation trade-off).
	freedPairs := make(map[uint64]bool)
	swept := c.mature.Sweep(func(cell uint64, cellSize uint64) bool {
		vm.CPU.AddCycles(2)
		live := c.ClearMark(cell)
		if child, ok := c.pairs[cell]; ok {
			childLive := c.ClearMark(child)
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
	c.sweptCells += uint64(swept)
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
