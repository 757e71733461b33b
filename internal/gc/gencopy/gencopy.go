// Package gencopy implements the generational copying collector used
// as the Figure 6 comparator: the shared generational front half
// (package gen — the very nursery, write barrier, large-object space
// and budget GenMS runs on) over a semispace copying mature space.
// Copying generally improves mature-space locality (survivors are
// compacted in breadth-first order) at the cost of a copy reserve —
// half the mature budget is unusable — which is why GenMS +
// co-allocation wins at small heap sizes (§6.3, Figure 6).
package gencopy

import (
	"fmt"

	"hpmvm/internal/gc/gen"
	"hpmvm/internal/gc/heap"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// Config sizes the collector; both collectors share the front half's.
type Config = gen.Config

// DefaultConfig returns a config with the given heap limit.
func DefaultConfig(heapLimit uint64) Config { return gen.DefaultConfig(heapLimit) }

// Stats describes collector activity.
type Stats struct {
	gen.Counters
	CopiedObjects uint64 // objects copied by major collections
	CopiedBytes   uint64
}

const semiSplit = (heap.MatureBase + heap.MatureEnd) / 2

// Collector is the GenCopy policy: the generational front half over
// two semispaces.
type Collector struct {
	gen.Heap
	semi   [2]*heap.BumpSpace
	active int

	copiedObjects, copiedBytes uint64

	queue []uint64 // LOS scan queue during a major collection
}

// New wires a GenCopy collector into the VM.
func New(vm *runtime.VM, cfg Config) *Collector {
	c := &Collector{}
	c.semi[0] = heap.NewBumpSpace("mature-0", heap.MatureBase, semiSplit)
	c.semi[1] = heap.NewBumpSpace("mature-1", semiSplit, heap.MatureEnd)
	c.Init(vm, cfg, "GenCopy", c)
	vm.Collector = c
	return c
}

// Stats returns a snapshot.
func (c *Collector) Stats() Stats {
	return Stats{Counters: c.Counters, CopiedObjects: c.copiedObjects, CopiedBytes: c.copiedBytes}
}

// MatureUsedBytes returns live bytes in the active semispace.
func (c *Collector) MatureUsedBytes() uint64 { return c.semi[c.active].Used() }

// Footprint implements gen.Mature: both semispaces' worth of budget
// (the copy reserve) — the space-efficiency cost the paper contrasts
// with GenMS.
func (c *Collector) Footprint() uint64 { return 2 * c.semi[c.active].Used() }

// Promote implements gen.Mature: it bump-allocates the survivor in the
// active semispace.
func (c *Collector) Promote(obj uint64) uint64 {
	size := c.VM.SizeOf(obj)
	dst := c.semi[c.active].Alloc(size)
	if dst == 0 {
		panic(fmt.Sprintf("gencopy: semispace exhausted promoting %d bytes", size))
	}
	c.Evacuate(obj, dst, size)
	return dst
}

// Collect implements gen.Mature: it copies the live mature population
// into the other semispace with a Cheney breadth-first scan, updating
// every root, to-space and large-object reference, and marks the live
// large objects on the way.
func (c *Collector) Collect() {
	vm := c.VM
	from := c.semi[c.active]
	to := c.semi[1-c.active]
	to.Reset()

	c.queue = c.queue[:0]

	forward := func(obj uint64) uint64 {
		if dst, ok := vm.Forwarded(obj); ok {
			return dst
		}
		size := vm.SizeOf(obj)
		dst := to.Alloc(size)
		if dst == 0 {
			panic(fmt.Sprintf("gencopy: to-space exhausted copying %d bytes", size))
		}
		vm.CopyObject(dst, obj, size)
		vm.SetForwarding(obj, dst)
		c.copiedObjects++
		c.copiedBytes += size
		return dst
	}
	// visit processes a reference value, returning the (possibly
	// updated) reference.
	visit := func(v uint64) uint64 {
		if from.Contains(v) {
			return forward(v)
		}
		if heap.InLOS(v) {
			fl := vm.FlagsOf(v)
			if fl&classfile.FlagMark == 0 {
				vm.SetFlags(v, fl|classfile.FlagMark)
				c.queue = append(c.queue, v)
			}
		}
		return v
	}

	for _, r := range vm.CollectRoots() {
		v := vm.RootGet(r)
		nv := visit(v)
		if nv != v {
			vm.RootSet(r, nv)
		}
	}

	// Cheney scan of the to-space plus the LOS scan queue.
	scan := to.Base
	for scan < to.Base+to.Used() || len(c.queue) > 0 {
		var obj uint64
		if scan < to.Base+to.Used() {
			obj = scan
			scan += vm.SizeOf(obj)
		} else {
			obj = c.queue[len(c.queue)-1]
			c.queue = c.queue[:len(c.queue)-1]
		}
		vm.CPU.AddCycles(c.Cfg.PerObjectCycles)
		vm.ForEachRef(obj, func(slot uint64) {
			v := vm.CPU.LoadWord(slot)
			nv := visit(v)
			if nv != v {
				vm.CPU.StoreWord(slot, nv)
			}
		})
	}

	from.Reset()
	c.active = 1 - c.active
}
