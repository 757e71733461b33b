package cache

import "testing"

// The Access benchmarks pin the cost of the simulator's memory-access
// slow path: every simulated load and store that the resident-line
// lane (Hierarchy.HitAt) does not serve goes through Hierarchy.Access.
// Hit is an L1 hit Access serves; TLBMiss is a DTLB miss on an L1 hit;
// Miss is the full L1+L2+TLB miss path including prefetcher training;
// HitLane is the lane in front of Access.

// BenchmarkHierarchyAccessHit measures an L1 hit through Access with no
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

// BenchmarkHierarchyHitLane is the same walk as the interpreter takes
// it: HitAt first, Access when HitAt declines.
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
// through HitAt and then Access.
func benchHitMixed(b *testing.B, h *Hierarchy, lane bool) {
	// 8 KB working set: half the 16 KB L1, always resident.
	const ws = 8 * 1024
	for a := uint64(0); a < ws; a += 8 {
		h.Access(a, 8, false)
	}
	b.ResetTimer()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		if write := i&7 == 0; !lane || !h.HitAt(0, addr, write) {
			h.Access(addr, 8, write)
		}
		addr = (addr + 264) & (ws - 1) // coprime-ish stride over the set
	}
}

// BenchmarkHierarchyAccessTLBMiss measures a DTLB miss on an L1 hit:
// one line on each of 128 pages, in round robin, misses the 64-entry
// LRU DTLB every time, while the 128 lines, one stride of 33 lines
// apart, fill the 32 sets of the L1 four deep and stay resident.
func BenchmarkHierarchyAccessTLBMiss(b *testing.B) {
	const pages, stride = 128, 4096 + 128
	h := New(DefaultP4())
	for i := range uint64(pages) {
		h.Access(i*stride, 8, false)
	}
	h.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i%pages)*stride, 8, false)
	}
	b.StopTimer()
	if st := h.Stats(); st.TLBMisses != uint64(b.N) || st.L1Misses != 0 {
		b.Fatalf("%d DTLB and %d L1 misses in %d accesses, want %[3]d and 0", st.TLBMisses, st.L1Misses, b.N)
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
