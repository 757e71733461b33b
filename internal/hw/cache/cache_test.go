package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

// tiny returns a small, easily reasoned-about L1 — 4 lines of 64 B,
// 2-way, 2 sets — in front of the P4's L2, DTLB and cycle costs, with
// the stream prefetcher off.
func tiny() Config {
	cfg := DefaultP4()
	cfg.LineSize, cfg.L1Size, cfg.L1Assoc = 64, 4*64, 2
	cfg.PrefetchEnabled = false
	return cfg
}

func TestValidate(t *testing.T) {
	if err := DefaultP4().Validate(); err != nil {
		t.Fatalf("DefaultP4 invalid: %v", err)
	}
	bad := DefaultP4()
	bad.L1Size = 3000 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("expected error for non-power-of-two size")
	}
	bad = DefaultP4()
	bad.L1Assoc = 4096
	if err := bad.Validate(); err == nil {
		t.Error("expected error for oversized associativity")
	}
	bad = DefaultP4()
	bad.PageSize = bad.LineSize / 2 // a line would span two pages
	if err := bad.Validate(); err == nil {
		t.Error("expected error for pages smaller than lines")
	}
	// Lines so long that the L2 holds fewer than one set of them.
	bad = Config{LineSize: 256 << 10, L1Size: 256 << 10, L1Assoc: 1, PageSize: 256 << 10}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for lines too long for the L2")
	}
	// One-byte lines and pages pass every other check, but an unshifted
	// address could equal the all-ones key that marks an empty way.
	bad = DefaultP4()
	bad.LineSize, bad.PageSize = 1, 1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for one-byte lines and pages")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(tiny())
	c1 := h.Access(0x1000, 8, false)
	st := h.Stats()
	if st.L1Misses != 1 || st.L2Misses != 1 || st.TLBMisses != 1 {
		t.Fatalf("cold access stats: %+v", st)
	}
	if c1 != 2+18+200+30 {
		t.Fatalf("cold access cost = %d", c1)
	}
	c2 := h.Access(0x1008, 8, false) // same line, same page
	if c2 != 2 {
		t.Fatalf("warm access cost = %d", c2)
	}
	st = h.Stats()
	if st.L1Misses != 1 {
		t.Fatalf("second access missed: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	h := New(tiny())
	// Two sets; lines mapping to set 0 are multiples of 2*64.
	a, b, c := uint64(0x0000), uint64(0x0080), uint64(0x0100)
	_ = h.Access(a, 8, false)
	_ = h.Access(b, 8, false)
	// a and b fill set 0 (2-way). Touch a to make b the LRU victim.
	_ = h.Access(a, 8, false)
	_ = h.Access(c, 8, false) // evicts b
	if !h.L1Contains(a) {
		t.Error("a should still be resident")
	}
	if h.L1Contains(b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !h.L1Contains(c) {
		t.Error("c should be resident")
	}
}

func TestWritebackCounting(t *testing.T) {
	h := New(tiny())
	h.Access(0x0000, 8, true) // dirty line in set 0
	h.Access(0x0080, 8, false)
	h.Access(0x0100, 8, false) // evicts dirty 0x0000
	if h.Stats().Writebacks == 0 {
		t.Error("expected a writeback of the dirty line")
	}
}

func TestTLB(t *testing.T) {
	cfg := tiny()
	h := New(cfg)
	h.Access(0x0000, 8, false)
	h.Access(0x0008, 8, false) // same page: TLB hit
	if got := h.Stats().TLBMisses; got != 1 {
		t.Fatalf("TLBMisses = %d, want 1", got)
	}
	// Touch as many other pages as the DTLB holds: the first page gets
	// evicted.
	for p := 1; p <= tlbEntries; p++ {
		h.Access(uint64(p)*4096, 8, false)
	}
	before := h.Stats().TLBMisses
	h.Access(0x0000, 8, false)
	if h.Stats().TLBMisses != before+1 {
		t.Error("expected TLB miss after eviction")
	}
}

func TestPrefetcherDetectsStream(t *testing.T) {
	cfg := DefaultP4()
	h := New(cfg)
	// Sequential walk: the stream prefetcher should kick in and count
	// prefetch hits.
	for i := uint64(0); i < 64; i++ {
		h.Access(0x10_0000+i*uint64(cfg.LineSize), 8, false)
	}
	st := h.Stats()
	if st.Prefetches == 0 {
		t.Error("expected prefetches on a sequential stream")
	}
	if st.PrefetchHits == 0 {
		t.Error("expected prefetch hits on a sequential stream")
	}
	// The stream should have fewer memory-level misses than lines.
	if st.L2Misses >= 64 {
		t.Errorf("L2 misses = %d, prefetcher ineffective", st.L2Misses)
	}
}

// TestPrefetchStreamWrapsBelowLineZero: a descending stream that reaches
// line 0 asks for line -1, which is the last line of the address space —
// not the all-ones key the tag arrays keep in empty ways.
func TestPrefetchStreamWrapsBelowLineZero(t *testing.T) {
	cfg := tiny()
	cfg.PrefetchEnabled = true
	h := New(cfg)
	h.Access(0x40, 8, false)
	h.Access(0x08, 8, false)
	if st := h.Stats(); st.Prefetches != 1 {
		t.Fatalf("descending pair issued %d prefetches, want 1", st.Prefetches)
	}
	if !h.L1Contains(^uint64(0)) {
		t.Error("the wrapped line is not resident")
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cfg := DefaultP4()
	cfg.PrefetchEnabled = false
	h := New(cfg)
	for i := uint64(0); i < 64; i++ {
		h.Access(0x10_0000+i*uint64(cfg.LineSize), 8, false)
	}
	if h.Stats().Prefetches != 0 {
		t.Error("prefetches counted while disabled")
	}
}

func TestEvents(t *testing.T) {
	h := New(tiny())
	var events []EventKind
	h.SetListener(listenerFunc(func(k EventKind, addr uint64) {
		events = append(events, k)
	}))
	h.Access(0x0000, 8, false)
	want := map[EventKind]bool{EventL1Miss: true, EventL2Miss: true, EventDTLBMiss: true}
	for _, e := range events {
		delete(want, e)
	}
	if len(want) != 0 {
		t.Errorf("missing events: %v (got %v)", want, events)
	}
	// A warm hit produces no events.
	events = nil
	h.Access(0x0000, 8, false)
	if len(events) != 0 {
		t.Errorf("events on hit: %v", events)
	}
}

type listenerFunc func(EventKind, uint64)

func (f listenerFunc) HardwareEvent(k EventKind, a uint64) { f(k, a) }

func TestFlushAndReset(t *testing.T) {
	h := New(tiny())
	h.Access(0x0000, 8, false)
	h.Flush()
	if h.L1Contains(0x0000) {
		t.Error("line survived Flush")
	}
	h.ResetStats()
	if h.Stats().Accesses != 0 {
		t.Error("stats survived ResetStats")
	}
}

func TestLineHelpers(t *testing.T) {
	h := New(DefaultP4())
	if h.LineOf(0x1234) != 0x1200 {
		t.Errorf("LineOf = %#x", h.LineOf(0x1234))
	}
	if !h.SameLine(0x1200, 0x127F) {
		t.Error("SameLine within a 128B line")
	}
	if h.SameLine(0x127F, 0x1280) {
		t.Error("SameLine across boundary")
	}
}

func TestMissCountInvariants(t *testing.T) {
	// Property: misses never exceed accesses; re-accessing the same
	// address immediately always hits.
	f := func(addrs []uint32) bool {
		h := New(tiny())
		for _, a := range addrs {
			addr := uint64(a) &^ 7
			if addr == 0 {
				addr = 8
			}
			h.Access(addr, 8, false)
			cost := h.Access(addr, 8, false)
			if cost != l1HitCycles {
				return false
			}
		}
		st := h.Stats()
		return st.L1Misses <= st.Accesses && st.L2Misses <= st.L1Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEventKindString(t *testing.T) {
	if EventL1Miss.String() != "L1_MISS" || EventDTLBMiss.String() != "DTLB_MISS" {
		t.Error("event names wrong")
	}
}

// TestParseEventKind covers every spelling the CLIs and the API accept
// — short name, _miss suffix and the String form, in either case — and
// one that they reject.
func TestParseEventKind(t *testing.T) {
	accepted := map[string]EventKind{
		"":   EventL1Miss,
		"l1": EventL1Miss, "L1": EventL1Miss, "l1_miss": EventL1Miss,
		"l2": EventL2Miss, "L2": EventL2Miss, "l2_miss": EventL2Miss,
		"dtlb": EventDTLBMiss, "DTLB": EventDTLBMiss, "dtlb_miss": EventDTLBMiss,
		"l1i": EventL1IMiss, "L1I": EventL1IMiss, "l1i_miss": EventL1IMiss,
	}
	for k := EventKind(0); k < NumEventKinds; k++ {
		accepted[k.String()] = k
	}
	for s, want := range accepted {
		if got, err := ParseEventKind(s); err != nil || got != want {
			t.Errorf("ParseEventKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEventKind("l3"); err == nil || !strings.Contains(err.Error(), `unknown event "l3" (l1, l2, dtlb or l1i)`) {
		t.Errorf(`ParseEventKind("l3") error = %v`, err)
	}
}
