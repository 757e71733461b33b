package cache

import "testing"

// swCPU is a scriptable SwPrefetchCPU: the test sets the PC an access
// "executes at" and the privilege mode.
type swCPU struct {
	pc   uint64
	user bool
}

func (c *swCPU) SamplePC() uint64 { return c.pc }
func (c *swCPU) UserMode() bool   { return c.user }

// swTiny returns a tiny hierarchy with the software-prefetch model on
// and one injected site: PC sitePC prefetches delta bytes ahead of its
// operand.
func swTiny(sitePC uint64, delta int64, issueCost uint64) (*Hierarchy, *swCPU) {
	h := New(tiny())
	cpu := &swCPU{user: true}
	h.EnableSwPrefetch(cpu, issueCost)
	h.SetSwPrefetchSites(map[uint64]int64{sitePC: delta})
	return h, cpu
}

// TestSoftwarePrefetchHitAttribution drives the injected-site path end
// to end: a demand access at the site PC issues a prefetch of the next
// line, and the later demand touch of that line is an L1 hit counted
// under the software counters — with the hardware stream counters
// untouched, so the two mechanisms stay separately ablatable.
func TestSoftwarePrefetchHitAttribution(t *testing.T) {
	h, cpu := swTiny(0x500, 64, 2)
	cpu.pc = 0x500
	c1 := h.Access(0x1000, 8, false)
	// Demand cold miss (1+10+100+20) plus the issue cost of the
	// non-resident next-line prefetch.
	if want := uint64(1 + 10 + 100 + 20 + 2); c1 != want {
		t.Fatalf("site access cost = %d, want %d", c1, want)
	}
	st := h.Stats()
	if st.SwPrefetches != 1 || st.SwPrefetchHits != 0 {
		t.Fatalf("after site access: %+v", st)
	}
	if st.Prefetches != 0 || st.PrefetchHits != 0 {
		t.Fatalf("software issue leaked into hardware counters: %+v", st)
	}

	cpu.pc = 0x999 // not a site
	c2 := h.Access(0x1040, 8, false)
	if c2 != 1 {
		t.Fatalf("prefetched line not an L1 hit: cost %d", c2)
	}
	st = h.Stats()
	if st.SwPrefetchHits != 1 {
		t.Fatalf("prefetch hit not attributed: %+v", st)
	}
	if got := st.SwPrefetchAccuracy(); got != 1.0 {
		t.Fatalf("SwPrefetchAccuracy = %v, want 1", got)
	}
	// The first demand touch consumes the attribution: touching the
	// line again is an ordinary hit.
	h.Access(0x1040, 8, false)
	if st = h.Stats(); st.SwPrefetchHits != 1 {
		t.Fatalf("attribution double-counted: %+v", st)
	}
}

// TestSoftwarePrefetchSquash pins the free-squash rule: prefetching a
// line that is already L1-resident costs nothing and counts nothing.
func TestSoftwarePrefetchSquash(t *testing.T) {
	h, cpu := swTiny(0x500, 64, 2)
	cpu.pc = 0x999
	h.Access(0x1040, 8, false) // make the would-be target resident
	cpu.pc = 0x500
	c := h.Access(0x1000, 8, false)
	if want := uint64(1 + 10 + 100); c != want { // same page: no TLB miss
		t.Fatalf("site access with resident target cost %d, want %d", c, want)
	}
	if st := h.Stats(); st.SwPrefetches != 0 {
		t.Fatalf("squashed prefetch was counted: %+v", st)
	}
}

// TestSoftwarePrefetchPageClamp pins the issue-time clamp: an injected
// prefetch never crosses the page its operand lies in (translation
// past the boundary could fault), in either direction.
func TestSoftwarePrefetchPageClamp(t *testing.T) {
	h, cpu := swTiny(0x500, 64, 2)
	cpu.pc = 0x500
	h.Access(0x1FC0, 8, false) // last line of the page: +64 crosses
	if st := h.Stats(); st.SwPrefetches != 0 {
		t.Fatalf("prefetch crossed the page boundary up: %+v", st)
	}

	h2, cpu2 := swTiny(0x500, -64, 2)
	cpu2.pc = 0x500
	h2.Access(0x2000, 8, false) // first line of the page: -64 crosses
	if st := h2.Stats(); st.SwPrefetches != 0 {
		t.Fatalf("prefetch crossed the page boundary down: %+v", st)
	}
	// Further in, the same delta stays inside the page and issues
	// (0x2080 - 64 = 0x2040, not yet resident).
	h2.Access(0x2080, 8, false)
	if st := h2.Stats(); st.SwPrefetches != 1 {
		t.Fatalf("in-page prefetch did not issue: %+v", st)
	}
}

// TestSoftwarePrefetchUserModeGate pins that VM-service accesses made
// with a stale user PC never trigger an injected site.
func TestSoftwarePrefetchUserModeGate(t *testing.T) {
	h, cpu := swTiny(0x500, 64, 2)
	cpu.pc = 0x500
	cpu.user = false
	h.Access(0x1000, 8, false)
	if st := h.Stats(); st.SwPrefetches != 0 {
		t.Fatalf("kernel-mode access triggered an injected site: %+v", st)
	}
}

// TestSoftwarePrefetchWindowIndependence pins the ResetStats contract
// for the software attribution set: a window close clears pending
// attributions (the next window's hits only count its own issues) while
// the line itself stays resident — physical state is not statistics.
func TestSoftwarePrefetchWindowIndependence(t *testing.T) {
	h, cpu := swTiny(0x500, 64, 2)
	cpu.pc = 0x500
	h.Access(0x1000, 8, false) // issues prefetch of 0x1040
	h.ResetStats()
	cpu.pc = 0x999
	c := h.Access(0x1040, 8, false)
	if c != 1 {
		t.Fatalf("prefetched line evicted by ResetStats: cost %d", c)
	}
	if st := h.Stats(); st.SwPrefetches != 0 || st.SwPrefetchHits != 0 {
		t.Fatalf("stale attribution crossed the window: %+v", st)
	}
}

// TestSoftwarePrefetchUninstall pins SetSwPrefetchSites(nil): an
// uninstalled table issues nothing, and the passed-in map is copied so
// later caller mutations cannot reach the model.
func TestSoftwarePrefetchUninstall(t *testing.T) {
	sites := map[uint64]int64{0x500: 64}
	h := New(tiny())
	cpu := &swCPU{user: true, pc: 0x500}
	h.EnableSwPrefetch(cpu, 2)
	h.SetSwPrefetchSites(sites)
	sites[0x500] = 1 << 40 // caller mutation must not alias the table
	h.Access(0x1000, 8, false)
	if st := h.Stats(); st.SwPrefetches != 1 {
		t.Fatalf("mutated caller map reached the model: %+v", st)
	}
	h.SetSwPrefetchSites(nil)
	h.Access(0x3000, 8, false)
	if st := h.Stats(); st.SwPrefetches != 1 {
		t.Fatalf("uninstalled site still issuing: %+v", st)
	}
}

// TestSoftwarePrefetchAttributionSurvivesWarmRefill pins the pending
// flag's warming-lane rule: a prefetched line that fast-forward evicts
// and demand-fills again is still awaiting its first detailed touch, in
// whatever way it came back to.
func TestSoftwarePrefetchAttributionSurvivesWarmRefill(t *testing.T) {
	h, _ := swTiny(0x500, 64, 2)
	// Lines of L1 set 0 (2 ways): a and b are demanded, x is prefetched.
	const a, b, x = 0x0000, 0x0080, 0x0100
	h.Access(a, 8, false)
	h.Access(b, 8, false)
	h.SoftwarePrefetch(x) // evicts a
	h.Access(a, 8, false) // evicts b: the set holds x and a
	h.SetFunctional(3)
	h.Access(b, 8, false) // evicts x
	h.Access(x, 8, false) // x returns, over a way a demand access had settled
	h.SetDetailed()
	if !h.L1Contains(x) {
		t.Fatal("x not resident: the scenario did not set up")
	}
	h.Access(x, 8, false)
	if st := h.Stats(); st.SwPrefetches != 1 || st.SwPrefetchHits != 1 {
		t.Fatalf("first detailed touch of the refilled line not attributed: %+v", st)
	}
}
