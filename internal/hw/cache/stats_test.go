package cache

import "testing"

// TestStatsDerivedRates pins the derived-rate accessors, including the
// zero-access window where every denominator is empty: a freshly reset
// window must report well-defined zero rates, not NaN.
func TestStatsDerivedRates(t *testing.T) {
	cases := []struct {
		name string
		st   Stats

		l1, l2, tlb, pfAcc float64
	}{
		{
			name: "zero window",
			st:   Stats{},
			// all rates 0: nothing divides by zero
		},
		{
			name: "typical mix",
			st: Stats{
				Accesses: 100, L1Misses: 10, L2Misses: 5, TLBMisses: 2,
				Prefetches: 4, PrefetchHits: 3,
			},
			l1: 0.10, l2: 0.05, tlb: 0.02, pfAcc: 0.75,
		},
		{
			name: "every access misses everywhere",
			st: Stats{
				Accesses: 4, L1Misses: 4, L2Misses: 4, TLBMisses: 4,
			},
			l1: 1, l2: 1, tlb: 1,
		},
		{
			name: "hits only",
			st:   Stats{Accesses: 8},
		},
		{
			name: "prefetches issued, none demanded",
			st:   Stats{Accesses: 2, Prefetches: 6},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checks := []struct {
				name string
				got  float64
				want float64
			}{
				{"L1MissRate", c.st.L1MissRate(), c.l1},
				{"L2MissRate", c.st.L2MissRate(), c.l2},
				{"TLBMissRate", c.st.TLBMissRate(), c.tlb},
				{"PrefetchAccuracy", c.st.PrefetchAccuracy(), c.pfAcc},
			}
			for _, ch := range checks {
				if ch.got != ch.want {
					t.Errorf("%s = %v, want %v", ch.name, ch.got, ch.want)
				}
				if ch.got != ch.got { // NaN guard
					t.Errorf("%s is NaN", ch.name)
				}
			}
		})
	}
}

// TestResetStatsWindowIndependence pins the measurement-window
// contract of ResetStats: counters and the prefetched-line attribution
// set belong to the window and are cleared, while physical machine
// state (cache/TLB contents, trained prefetch streams) is retained so
// closing a window never changes subsequent timing.
func TestResetStatsWindowIndependence(t *testing.T) {
	cfg := DefaultP4()
	h := New(cfg)

	// Sequential walk long enough to train the stream detector and
	// leave prefetched lines outstanding (issued but not yet demanded).
	base := uint64(0x10_0000)
	for i := uint64(0); i < 32; i++ {
		h.Access(base+i*uint64(cfg.LineSize), 8, false)
	}
	pre := h.Stats()
	if pre.Prefetches == 0 || pre.PrefetchHits == 0 {
		t.Fatalf("walk did not exercise the prefetcher: %+v", pre)
	}
	if h.prefetched.Len() == 0 {
		t.Fatal("walk left no outstanding prefetched lines; pick a longer stream")
	}
	outstanding := h.prefetched.Keys()[0]

	h.ResetStats()

	// Window state is gone: counters zeroed, attribution set empty.
	if h.Stats() != (Stats{}) {
		t.Errorf("counters not zeroed: %+v", h.Stats())
	}
	if h.prefetched.Len() != 0 {
		t.Errorf("%d prefetched-line entries leaked into the new window", h.prefetched.Len())
	}

	// Demanding a line prefetched in the PREVIOUS window must not count
	// as a prefetch hit in this one (it used to, letting a window report
	// more prefetch hits than prefetches).
	h.Access(outstanding<<log2(cfg.LineSize), 8, false)
	if got := h.Stats().PrefetchHits; got != 0 {
		t.Errorf("prefetch hit attributed across a window boundary (PrefetchHits = %d)", got)
	}

	// Physical state is retained: a line demanded before the reset is
	// still resident, so re-touching it is a pure L1 hit at hit cost.
	costBefore := h.Stats().Cycles
	cost := h.Access(base, 8, false)
	if cost != l1HitCycles {
		t.Errorf("resident line cost %d after ResetStats, want L1 hit cost %d (cache contents must survive a window close)", cost, l1HitCycles)
	}
	if st := h.Stats(); st.L1Misses != 0 || st.Cycles != costBefore+l1HitCycles {
		t.Errorf("window close perturbed timing: %+v", st)
	}

	// The stream detector's training survives too.
	trained := false
	for _, s := range h.streams {
		if s.valid && s.conf >= 2 {
			trained = true
		}
	}
	if !trained {
		t.Error("stream detector lost its training across ResetStats")
	}
}

// TestResetStatsIsTimingNeutral runs the same access sequence twice —
// once straight through, once with ResetStats closing windows mid-way —
// and demands identical per-access costs: a statistics window close
// must be invisible to the simulated hardware.
func TestResetStatsIsTimingNeutral(t *testing.T) {
	seq := func(h *Hierarchy, resetEvery int) (costs []uint64) {
		for i := 0; i < 200; i++ {
			addr := uint64(0x40_0000) + uint64(i%50)*uint64(h.cfg.LineSize)
			costs = append(costs, h.Access(addr, 8, i%7 == 0))
			if resetEvery > 0 && i%resetEvery == 0 {
				h.ResetStats()
			}
		}
		return costs
	}
	plain := seq(New(DefaultP4()), 0)
	windowed := seq(New(DefaultP4()), 16)
	for i := range plain {
		if plain[i] != windowed[i] {
			t.Fatalf("access %d: cost %d with windows vs %d without — ResetStats changed timing", i, windowed[i], plain[i])
		}
	}
}
