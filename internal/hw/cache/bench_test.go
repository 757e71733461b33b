package cache

import "testing"

// The Access benchmarks pin the cost of the simulator's memory-access
// entry point: every simulated load and store that the resident-line
// lane (Hierarchy.Hit) does not serve goes through Hierarchy.Access. Hit is the steady-state L1-hit fast path; Miss is
// the full L1+L2+TLB miss path including prefetcher training; HitLane
// is the lane in front of Access.

// BenchmarkHierarchyAccessHit measures the L1-hit fast path with no
// listener attached (the monitoring-off configuration every baseline
// run uses).
func BenchmarkHierarchyAccessHit(b *testing.B) {
	h := New(DefaultP4())
	h.Access(0x1000, 8, false) // fill line and TLB entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000, 8, false)
	}
}

// BenchmarkHierarchyAccessHitListener measures the same path with a
// listener attached (monitoring on); hits must not pay for event
// delivery.
func BenchmarkHierarchyAccessHitListener(b *testing.B) {
	h := New(DefaultP4())
	var l recordingListener
	h.SetListener(&l)
	h.Access(0x1000, 8, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000, 8, false)
	}
}

// BenchmarkHierarchyAccessHitMixed walks a small working set that fits
// in L1 (hits spread over several sets, loads and stores mixed) —
// closer to real hit traffic than a single hot line.
func BenchmarkHierarchyAccessHitMixed(b *testing.B) {
	benchHitMixed(b, New(DefaultP4()), false)
}

// BenchmarkHierarchyHitLane is the same walk as runLoop takes it: Hit
// first, Access when Hit declines.
func BenchmarkHierarchyHitLane(b *testing.B) {
	benchHitMixed(b, New(DefaultP4()), true)
}

// BenchmarkHierarchyAccessFunctional is the same walk on the warming
// lane (SetFunctional): the path sampled simulation spends its
// fast-forward in.
func BenchmarkHierarchyAccessFunctional(b *testing.B) {
	h := New(DefaultP4())
	h.SetFunctional(3)
	benchHitMixed(b, h, false)
}

// benchHitMixed walks the working set through Access, or with lane
// through Hit and then Access.
func benchHitMixed(b *testing.B, h *Hierarchy, lane bool) {
	// 8 KB working set: half the 16 KB L1, always resident.
	const ws = 8 * 1024
	for a := uint64(0); a < ws; a += 8 {
		h.Access(a, 8, false)
	}
	b.ResetTimer()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		if write := i&7 == 0; !lane || !h.Hit(addr, write) {
			h.Access(addr, 8, write)
		}
		addr = (addr + 264) & (ws - 1) // coprime-ish stride over the set
	}
}

// BenchmarkHierarchyAccessMiss measures the full miss path: each access
// misses the TLB, L1 and L2 (page-sized+ stride defeats the 64-entry
// DTLB and both tag arrays) and exercises prefetcher training.
func BenchmarkHierarchyAccessMiss(b *testing.B) {
	h := New(DefaultP4())
	b.ResetTimer()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		h.Access(addr, 8, false)
		addr += 4096*33 + 128
	}
}
