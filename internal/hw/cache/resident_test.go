package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// The resident-line table is exact only because every change of
// residency drops what it invalidates. Each test below tables one line,
// makes one such change, and requires the next HitAt on that line to
// decline; TestOracleLockStep holds the lane to the reference on random
// streams.

// tabled returns a hierarchy built from cfg in which the line of addr
// has been accessed twice through Access, and checks that HitAt now
// serves it.
func tabled(t *testing.T, cfg Config, addr uint64) *Hierarchy {
	t.Helper()
	h := New(cfg)
	h.Access(addr, 8, false)
	h.Access(addr, 8, false)
	if !h.HitAt(0, addr, false) {
		t.Fatalf("HitAt(%#x) declined a line two accesses made resident", addr)
	}
	return h
}

func declines(t *testing.T, h *Hierarchy, addr uint64, after string) {
	t.Helper()
	if h.HitAt(0, addr, false) {
		t.Fatalf("HitAt(%#x) served the line after %s", addr, after)
	}
}

func TestHitServesLikeAccess(t *testing.T) {
	const addr = 0x4000
	h, twin := tabled(t, DefaultP4(), addr), New(DefaultP4())
	for range 3 {
		twin.Access(addr, 8, false)
	}
	for i := range 10 {
		write := i%3 == 0
		if !h.HitAt(0, addr+uint64(i*8), write) {
			t.Fatalf("HitAt %d declined", i)
		}
		twin.Access(addr+uint64(i*8), 8, write)
	}
	if h.Stats() != twin.Stats() {
		t.Fatalf("stats %+v, Access alone %+v", h.Stats(), twin.Stats())
	}
	if string(h.Snapshot().Data) != string(twin.Snapshot().Data) {
		t.Fatal("snapshot differs from Access alone")
	}
}

func TestHitDeclinesAfterL1Eviction(t *testing.T) {
	cfg := DefaultP4()
	cfg.PrefetchEnabled = false
	const addr = 0x4000
	h := tabled(t, cfg, addr)
	// The lines one page apart share addr's L1 set; the DTLB keeps all
	// five pages.
	for i := 1; i <= cfg.L1Assoc; i++ {
		h.Access(addr+uint64(i*cfg.PageSize), 8, false)
	}
	if h.L1Contains(addr) {
		t.Fatal("the set's fills did not evict the line")
	}
	declines(t, h, addr, "an L1 eviction")
}

func TestHitDeclinesAfterDTLBEviction(t *testing.T) {
	// 64 KB pages hold more lines than the table has slots, which drops
	// a page by scanning the table instead of its lines' slots.
	for _, pageSize := range []int{4096, 64 * 1024} {
		cfg := DefaultP4()
		cfg.PrefetchEnabled = false
		cfg.PageSize = pageSize
		const addr = 0x40000
		h := tabled(t, cfg, addr)
		// One line in each of tlbEntries other pages, all in another L1
		// set.
		for i := 1; i <= tlbEntries; i++ {
			h.Access(addr+uint64(i*cfg.PageSize+cfg.LineSize), 8, false)
		}
		if !h.L1Contains(addr) {
			t.Fatalf("%d-byte pages: the page walk evicted the line from L1", pageSize)
		}
		declines(t, h, addr, "its page's DTLB eviction")
	}
}

// streamTo trains the stream prefetcher with demand misses on the two
// lines below line, so it prefetches line.
func streamTo(h *Hierarchy, line uint64) {
	for _, l := range []uint64{line - 2, line - 1} {
		h.Access(l<<h.lineBits, 8, false)
	}
}

// l2Orphan returns, as line numbers for lines of lineSize bytes, the
// accesses that leave line in L1 but push it out of L2: line, then per
// L2 way another line of its L2 set, which shares its L1 set too, and
// line again. The hits on line keep it its L1 set's most recently used
// line while its L2 copy ages.
func l2Orphan(line uint64, lineSize int) []uint64 {
	sets := uint64(l2Size / lineSize / l2Assoc)
	lines := []uint64{line}
	for i := uint64(1); i <= l2Assoc; i++ {
		lines = append(lines, line+i*sets, line)
	}
	return lines
}

func TestHitDeclinesAfterInstallMarksPending(t *testing.T) {
	const line = 64
	cfg := DefaultP4()
	addr := uint64(line * cfg.LineSize)
	h := tabled(t, cfg, addr)
	for _, l := range l2Orphan(line, cfg.LineSize) {
		h.Access(l<<h.lineBits, 8, false)
	}
	if h.l2.find(line) >= 0 {
		t.Fatal("the line survived in L2")
	}
	if !h.HitAt(0, addr, false) {
		t.Fatal("the L2 fills dropped the L1-resident line")
	}
	// The stream prefetches the line, which L1 holds and L2 does not.
	streamTo(h, line)
	if !h.L1Contains(addr) || h.prefetched.Len() == 0 {
		t.Fatal("the stream did not prefetch the resident line")
	}
	declines(t, h, addr, "a prefetch install marked its way pending")
}

func TestHitDeclinesAfterInstallEviction(t *testing.T) {
	const line = 64
	h := tabled(t, DefaultP4(), line<<7)
	// Fill the rest of the line's L1 set (32 sets of 4 ways) so the line
	// is its least recently used way, then have the stream prefetch a
	// fifth line of the set.
	for i := uint64(1); i < 4; i++ {
		h.Access((line+32*i)<<7, 8, false)
	}
	streamTo(h, line+32*4)
	if h.L1Contains(line << 7) {
		t.Fatal("the prefetch did not evict the line")
	}
	declines(t, h, line<<7, "a prefetch install evicted it")
}

func TestHitDeclinesAfterRestore(t *testing.T) {
	const addr = 0x4000
	h := tabled(t, DefaultP4(), addr)
	st, want := h.Snapshot(), h.Stats()
	// A hit the restore abandons.
	h.HitAt(0, addr, true)
	if err := h.Restore(st); err != nil {
		t.Fatal(err)
	}
	if h.Stats() != want {
		t.Fatalf("restored stats %+v, snapshot's %+v", h.Stats(), want)
	}
	declines(t, h, addr, "Restore")
}

func TestHitDeclinesAfterFlush(t *testing.T) {
	const addr = 0x4000
	h := tabled(t, DefaultP4(), addr)
	h.Flush()
	declines(t, h, addr, "Flush")
}

// In the warming lane HitAt serves a tabled line as the lane's Access
// would: the stamps and the dirty bit move, nothing is counted, and the
// hit costs the flat cost.
func TestHitServesWarmingLane(t *testing.T) {
	const addr = 0x4000
	h, twin := tabled(t, DefaultP4(), addr), New(DefaultP4())
	for range 3 {
		twin.Access(addr, 8, false)
	}
	counted := h.Stats()
	h.SetFunctional(3)
	twin.SetFunctional(3)
	if h.HitCycles() != 3 {
		t.Fatalf("HitCycles = %d in the warming lane, want the flat cost 3", h.HitCycles())
	}
	for i := range 10 {
		write := i%3 == 0
		if !h.HitAt(0, addr+uint64(i*8), write) {
			t.Fatalf("HitAt %d declined in the warming lane", i)
		}
		twin.Access(addr+uint64(i*8), 8, write)
	}
	if h.Stats() != counted {
		t.Fatalf("stats %+v after warming-lane hits, %+v before", h.Stats(), counted)
	}
	if string(h.Snapshot().Data) != string(twin.Snapshot().Data) {
		t.Fatal("snapshot differs from Access alone")
	}
	h.SetDetailed()
	if !h.HitAt(0, addr, false) {
		t.Fatal("SetDetailed dropped a line that stayed resident")
	}
}

func TestHitDeclinesAfterWarmingEviction(t *testing.T) {
	cfg := DefaultP4()
	cfg.PrefetchEnabled = false
	const addr = 0x4000
	h := tabled(t, cfg, addr)
	h.SetFunctional(3)
	for i := 1; i <= cfg.L1Assoc; i++ {
		h.Access(addr+uint64(i*cfg.PageSize), 8, false)
	}
	h.SetDetailed()
	if h.L1Contains(addr) {
		t.Fatal("the set's fills did not evict the line")
	}
	declines(t, h, addr, "an L1 eviction in the warming lane")
}

// TestHitAtLockStep holds HitAt under the software-prefetch model to a
// twin hierarchy driven by Access alone, on a random stream whose
// accesses run at PCs some of which are installed sites: HitAt must
// decline wherever Access would issue a prefetch, across site table
// changes, lane switches and a Restore to an earlier site table.
func TestHitAtLockStep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultP4()
		cfg.L1Size = 4 * 1024
		h, twin := New(cfg), New(cfg)
		cpu := &swCPU{user: true}
		var hEv, twinEv eventLog
		for _, x := range []*Hierarchy{h, twin} {
			x.EnableSwPrefetch(cpu, 2)
		}
		h.SetListener(&hEv)
		twin.SetListener(&twinEv)
		rng := rand.New(rand.NewSource(seed))
		s := &oracleStream{rng: rng, cfg: cfg, pages: 2 * tlbEntries}
		var saved [2][]byte
		for i := 0; i < 40_000; i++ {
			switch op := rng.Intn(2000); {
			case op < 4:
				// Up to four of the eight PCs become sites.
				sites := map[uint64]int64{}
				for j := rng.Intn(5); j > 0; j-- {
					sites[4*uint64(rng.Intn(8))] = int64(rng.Intn(9)-4) * int64(cfg.LineSize)
				}
				h.SetSwPrefetchSites(sites)
				twin.SetSwPrefetchSites(sites)
			case op < 12:
				if h.Functional() {
					h.SetDetailed()
					twin.SetDetailed()
				} else {
					h.SetFunctional(3)
					twin.SetFunctional(3)
				}
			case op < 40 && i > 0:
				// An explicit prefetch near the stream, after lane hits.
				a := s.history[rng.Intn(len(s.history))] + uint64(rng.Intn(4*cfg.LineSize))
				if got, want := h.SoftwarePrefetch(a), twin.SoftwarePrefetch(a); got != want {
					t.Fatalf("seed %d before access %d: SoftwarePrefetch(%#x) cost %d, Access alone %d", seed, i, a, got, want)
				}
			case op < 42:
				saved = [2][]byte{h.Snapshot().Data, twin.Snapshot().Data}
			case op < 44 && saved[0] != nil:
				st := h.Snapshot()
				st.Data = saved[0]
				if err := h.Restore(st); err != nil {
					t.Fatal(err)
				}
				st.Data = saved[1]
				if err := twin.Restore(st); err != nil {
					t.Fatal(err)
				}
			}
			addr, write := s.next()
			cpu.pc = 4 * uint64(rng.Intn(8))
			want := twin.Access(addr, 8, write)
			got := h.HitCycles()
			if !h.HitAt(cpu.pc, addr, write) {
				got = h.Access(addr, 8, write)
			}
			if got != want {
				t.Fatalf("seed %d access %d (%#x at pc %d): cost %d, Access alone %d", seed, i, addr, cpu.pc, got, want)
			}
			if !slices.Equal(hEv, twinEv) {
				t.Fatalf("seed %d access %d: events %v, Access alone %v", seed, i, hEv, twinEv)
			}
			hEv, twinEv = hEv[:0], twinEv[:0]
			if i%1000 == 999 {
				if h.Stats() != twin.Stats() {
					t.Fatalf("seed %d access %d: stats %+v, Access alone %+v", seed, i, h.Stats(), twin.Stats())
				}
				if !bytes.Equal(h.Snapshot().Data, twin.Snapshot().Data) {
					t.Fatalf("seed %d access %d: snapshot differs from Access alone", seed, i)
				}
			}
		}
	}
}

// evictingListener, on the first L1 miss it sees, runs nested accesses
// that push the missing line straight out of L1 again.
type evictingListener struct {
	h    *Hierarchy
	done bool
}

func (l *evictingListener) HardwareEvent(kind EventKind, addr uint64) {
	if kind != EventL1Miss || l.done {
		return
	}
	l.done = true
	for i := 1; i <= l.h.cfg.L1Assoc; i++ {
		l.h.Access(addr+uint64(i*l.h.cfg.PageSize), 8, false)
	}
}

func TestHitDeclinesLineANestedAccessEvicted(t *testing.T) {
	cfg := DefaultP4()
	cfg.PrefetchEnabled = false
	const addr = 0x4000
	h := New(cfg)
	h.SetListener(&evictingListener{h: h})
	h.Access(addr, 8, false)
	if h.L1Contains(addr) {
		t.Fatal("the listener's accesses did not evict the line")
	}
	declines(t, h, addr, "a listener's nested accesses evicted it")
}

// The simulated regions start on power-of-two boundaries, so lines at
// one offset into each agree in their low bits. Under a mask of those
// bits the regions' first lines took one table slot, and two of them
// both L1-resident evicted each other from it at every alternation.
// The pairs are the ones a census of compress, db and jess found most
// often.
func TestHitServesRegionBasePairs(t *testing.T) {
	cfg := DefaultP4()
	// Every base falls in L1 set 0; eight ways keep all seven lines.
	cfg.L1Assoc = 8
	h := New(cfg)
	// Code, method table and vtable map lie below 8 MB, where the fold
	// adds nothing, so they still share one slot: the vtable map, tabled
	// last, holds it.
	for _, base := range []uint64{
		0x10_0000,   // code
		0x8_0000,    // method table
		0xC_0000,    // vtable map
		0x400_0000,  // immortal space
		0x1000_0000, // nursery
		0x2000_0000, // mature space
		0x5000_0000, // large objects
	} {
		h.Access(base, 8, false)
		if !h.L1Contains(base) {
			t.Fatalf("line %#x is not L1-resident after its access", base)
		}
	}
	for _, pair := range [][2]uint64{
		{0x2000_0000, 0x5000_0000},
		{0xC_0000, 0x400_0000},
		{0x1000_0000, 0x5000_0000},
	} {
		for range 2 {
			for _, addr := range pair {
				if !h.HitAt(0, addr, false) {
					t.Fatalf("HitAt(%#x) declined an L1-resident line of the pair %#x", addr, pair)
				}
			}
		}
	}
}

// recountTLBPages counts the DTLB's keys by tlbPagesSlot.
func recountTLBPages(h *Hierarchy) (n [1 << tlbPagesBits]uint32) {
	for _, page := range h.tlb.keys {
		if page != emptyKey {
			n[tlbPagesSlot(page)]++
		}
	}
	return n
}

// TestTLBPageCountsExact holds the DTLB's page counts to a recount of
// its keys after every operation of random streams, over small and
// large pages: fills and evictions in both lanes, Flush, Restore and a
// Restore that fails. A count that reads too low would fill a resident
// page a second time; one that reads too high only costs a scan, so
// only this test sees it.
func TestTLBPageCountsExact(t *testing.T) {
	for _, pageSize := range []int{4096, 64 * 1024} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := DefaultP4()
			cfg.PageSize = pageSize
			h := New(cfg)
			rng := rand.New(rand.NewSource(seed))
			s := &oracleStream{rng: rng, cfg: cfg, pages: 5 * tlbEntries}
			saved := h.Snapshot()
			for i := 0; i < 20_000; i++ {
				var op string
				switch r := rng.Intn(1000); {
				case r == 0:
					op = "Flush"
					h.Flush()
				case r < 4:
					op = "Snapshot"
					saved = h.Snapshot()
				case r < 8:
					op = "Restore"
					if err := h.Restore(saved); err != nil {
						t.Fatal(err)
					}
				case r < 10:
					// One byte short: the walk decodes the whole DTLB
					// before the decoder finds the snapshot truncated.
					op = "a failed Restore"
					bad := saved
					bad.Data = bad.Data[:len(bad.Data)-1]
					if err := h.Restore(bad); err == nil {
						t.Fatal("Restore accepted a truncated snapshot")
					}
				case r < 20:
					op = "a switch of lane"
					if h.Functional() {
						h.SetDetailed()
					} else {
						h.SetFunctional(3)
					}
				default:
					op = "an access"
					addr, write := s.next()
					if !h.HitAt(0, addr, write) {
						h.Access(addr, 8, write)
					}
				}
				if h.tlbPages != recountTLBPages(h) {
					t.Fatalf("%d-byte pages, seed %d, step %d: page counts differ from a recount after %s", pageSize, seed, i, op)
				}
			}
		}
	}
}
