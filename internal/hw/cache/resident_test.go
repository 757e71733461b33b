package cache

import "testing"

// The resident-line table is exact only because every change of
// residency drops what it invalidates. Each test below tables one line,
// makes one such change, and requires the next Hit on that line to
// decline; TestOracleLockStep holds the lane to the reference on random
// streams.

// tabled returns a hierarchy built from cfg in which the line of addr
// has been accessed twice through Access, and checks that Hit now
// serves it.
func tabled(t *testing.T, cfg Config, addr uint64) *Hierarchy {
	t.Helper()
	h := New(cfg)
	h.Access(addr, 8, false)
	h.Access(addr, 8, false)
	if !h.Hit(addr, false) {
		t.Fatalf("Hit(%#x) declined a line two accesses made resident", addr)
	}
	return h
}

func declines(t *testing.T, h *Hierarchy, addr uint64, after string) {
	t.Helper()
	if h.Hit(addr, false) {
		t.Fatalf("Hit(%#x) served the line after %s", addr, after)
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
		if !h.Hit(addr+uint64(i*8), write) {
			t.Fatalf("Hit %d declined", i)
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
		// One line in each of TLBEntries other pages, all in another L1
		// set.
		for i := 1; i <= cfg.TLBEntries; i++ {
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

// shallowCfg is a geometry whose L2 keeps fewer lines of a set than L1:
// 4 sets in both, 4 ways in L1 and 2 in L2.
func shallowCfg() Config {
	cfg := tiny()
	cfg.L1Size, cfg.L1Assoc = 16*64, 4
	cfg.L2Size, cfg.L2Assoc = 8*64, 2
	cfg.TLBEntries = 32
	cfg.PrefetchEnabled, cfg.PrefetchStreams = true, 4
	return cfg
}

func TestHitDeclinesAfterInstallMarksPending(t *testing.T) {
	cfg := shallowCfg()
	const line = 64
	h := tabled(t, cfg, line<<6)
	// Two more lines of the set push the line out of the 2-way L2 but
	// not out of the 4-way L1; the stream then prefetches it again.
	h.Access((line+4)<<6, 8, false)
	h.Access((line+8)<<6, 8, false)
	if !h.Hit(line<<6, false) {
		t.Fatal("the L2 fills dropped the L1-resident line")
	}
	streamTo(h, line)
	if !h.L1Contains(line<<6) || h.prefetched.Len() == 0 {
		t.Fatal("the stream did not prefetch the resident line")
	}
	declines(t, h, line<<6, "a prefetch install marked its way pending")
}

func TestHitDeclinesAfterInstallEviction(t *testing.T) {
	cfg := shallowCfg()
	const line = 64
	h := tabled(t, cfg, line<<6)
	// Fill the rest of the set so the line is its least recently used
	// way, then have the stream prefetch a fifth line of the set.
	for i := uint64(1); i < 4; i++ {
		h.Access((line+4*i)<<6, 8, false)
	}
	streamTo(h, line+16)
	if h.L1Contains(line << 6) {
		t.Fatal("the prefetch did not evict the line")
	}
	declines(t, h, line<<6, "a prefetch install evicted it")
}

func TestHitDeclinesAfterRestore(t *testing.T) {
	const addr = 0x4000
	h := tabled(t, DefaultP4(), addr)
	st, want := h.Snapshot(), h.Stats()
	// A hit the restore abandons.
	h.Hit(addr, true)
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

func TestHitDeclinesInWarmingLane(t *testing.T) {
	const addr = 0x4000
	h := tabled(t, DefaultP4(), addr)
	h.SetFunctional(3)
	declines(t, h, addr, "SetFunctional")
	h.Access(addr, 8, false)
	declines(t, h, addr, "a warming-lane hit")
	h.SetDetailed()
	if !h.Hit(addr, false) {
		t.Fatal("SetDetailed did not bring back a line that stayed resident")
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

func TestHitDeclinesUnderSwPrefetch(t *testing.T) {
	const addr = 0x4000
	h := tabled(t, DefaultP4(), addr)
	h.EnableSwPrefetch(&swCPU{user: true}, 2)
	declines(t, h, addr, "EnableSwPrefetch")
	h.Access(addr, 8, false)
	declines(t, h, addr, "a hit under the software-prefetch model")
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
