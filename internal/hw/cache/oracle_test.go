package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential oracle for the hierarchy's host-side fast paths. ref is
// a deliberately naive model of the same machine — per-set slices
// scanned linearly, a Go map for each prefetched-line set, no way
// predictor, no way index, no pending flags — driven in lock-step with
// Hierarchy over seeded random streams. Anything the fast paths get
// wrong (a prediction trusted without its compare, a way index out of
// step with the keys, a pending flag lost) shows up as a differing
// cost, event, counter or residency answer on the access where it first
// matters.

type refLine struct {
	key          uint64
	valid, dirty bool
	lru          uint64
}

type refArray struct {
	sets  [][]refLine
	stamp uint64
}

func newRefArray(totalLines, assoc int) *refArray {
	a := &refArray{sets: make([][]refLine, totalLines/assoc)}
	for i := range a.sets {
		a.sets[i] = make([]refLine, assoc)
	}
	return a
}

func (a *refArray) set(key uint64) []refLine { return a.sets[key%uint64(len(a.sets))] }

func (a *refArray) contains(key uint64) bool {
	for _, l := range a.set(key) {
		if l.valid && l.key == key {
			return true
		}
	}
	return false
}

// access touches key, filling it over the first invalid or else the
// least recently used way when absent.
func (a *refArray) access(key uint64, dirty bool) (hit, writeback bool) {
	a.stamp++
	set := a.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].lru = a.stamp
			set[i].dirty = set[i].dirty || dirty
			return true, false
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	writeback = set[victim].valid && set[victim].dirty
	set[victim] = refLine{key: key, valid: true, dirty: dirty, lru: a.stamp}
	return false, writeback
}

func (a *refArray) clear() {
	for _, set := range a.sets {
		for i := range set {
			set[i] = refLine{}
		}
	}
}

type refStream struct {
	last  uint64
	dir   int64
	conf  int
	valid bool
	lru   uint64
}

type ref struct {
	cfg          Config
	l1, l2, tlb  *refArray
	streams      []refStream
	streamStamp  uint64
	stats        Stats
	prefetched   map[uint64]bool
	swPrefetched map[uint64]bool // the software-prefetch model's set
	swCPU        *swCPU
	swSites      map[uint64]int64
	swIssueCost  uint64
	listener     Listener
	functional   bool
	flatCost     uint64
	line, pageSz uint64
}

func newRef(cfg Config) *ref {
	r := &ref{
		cfg:          cfg,
		l1:           newRefArray(cfg.L1Size/cfg.LineSize, cfg.L1Assoc),
		l2:           newRefArray(cfg.L2Size/cfg.LineSize, cfg.L2Assoc),
		tlb:          newRefArray(cfg.TLBEntries, cfg.TLBEntries),
		prefetched:   map[uint64]bool{},
		swPrefetched: map[uint64]bool{},
		line:         uint64(cfg.LineSize),
		pageSz:       uint64(cfg.PageSize),
	}
	if cfg.PrefetchEnabled {
		r.streams = make([]refStream, cfg.PrefetchStreams)
	}
	return r
}

func (r *ref) event(kind EventKind, addr uint64) {
	if r.listener != nil {
		r.listener.HardwareEvent(kind, addr)
	}
}

func (r *ref) Access(addr uint64, write bool) uint64 {
	count := !r.functional
	st := &r.stats
	cycles := r.cfg.L1HitCycles
	if count {
		st.Accesses++
		if write {
			st.Stores++
		} else {
			st.Loads++
		}
	}
	if hit, _ := r.tlb.access(addr/r.pageSz, false); !hit {
		if count {
			st.TLBMisses++
		}
		cycles += r.cfg.TLBMissCycles
		r.event(EventDTLBMiss, addr)
	}
	ln := addr / r.line
	if count && r.prefetched[ln] {
		st.PrefetchHits++
		delete(r.prefetched, ln)
	}
	if count && r.swPrefetched[ln] {
		st.SwPrefetchHits++
		delete(r.swPrefetched, ln)
	}
	hit, wb := r.l1.access(ln, write)
	if !hit {
		if count {
			st.L1Misses++
			if wb {
				st.Writebacks++
			}
		}
		cycles += r.cfg.L2HitCycles
		r.event(EventL1Miss, addr)
		hit, wb = r.l2.access(ln, write)
		if !hit {
			if count {
				st.L2Misses++
				if wb {
					st.Writebacks++
				}
			}
			cycles += r.cfg.MemCycles
			r.event(EventL2Miss, addr)
			r.train(ln)
		}
	}
	if !count {
		return r.flatCost
	}
	// The prefetch instruction injected at the executing PC, if any.
	if delta, ok := r.swSites[r.swCPU.pc]; ok && r.swCPU.user {
		if target := uint64(int64(addr) + delta); target/r.pageSz == addr/r.pageSz {
			cycles += r.SoftwarePrefetch(target)
		}
	}
	st.Cycles += cycles
	return cycles
}

func (r *ref) SoftwarePrefetch(addr uint64) uint64 {
	ln := addr / r.line
	if r.l1.contains(ln) {
		return 0
	}
	r.l2.access(ln, false)
	r.l1.access(ln, false)
	if r.functional {
		return 0
	}
	r.stats.SwPrefetches++
	r.swPrefetched[ln] = true
	return r.swIssueCost
}

// train is the stream detector: continue a stream, else pair with a
// neighbouring miss, else take over the least recently used tracker.
func (r *ref) train(ln uint64) {
	if len(r.streams) == 0 {
		return
	}
	r.streamStamp++
	for i := range r.streams {
		s := &r.streams[i]
		if s.valid && int64(ln)-int64(s.last) == s.dir {
			s.last, s.lru = ln, r.streamStamp
			if s.conf < 4 {
				s.conf++
			}
			if s.conf >= 2 {
				r.prefetch(uint64(int64(ln) + s.dir))
			}
			return
		}
	}
	for i := range r.streams {
		s := &r.streams[i]
		if d := int64(ln) - int64(s.last); s.valid && (d == 1 || d == -1) {
			*s = refStream{last: ln, dir: d, conf: 2, valid: true, lru: r.streamStamp}
			r.prefetch(uint64(int64(ln) + d))
			return
		}
	}
	victim := 0
	for i := range r.streams {
		if !r.streams[i].valid {
			victim = i
			break
		}
		if r.streams[i].lru < r.streams[victim].lru {
			victim = i
		}
	}
	r.streams[victim] = refStream{last: ln, dir: 1, conf: 1, valid: true, lru: r.streamStamp}
}

func (r *ref) prefetch(ln uint64) {
	if r.l2.contains(ln) && r.l1.contains(ln) {
		return
	}
	r.l2.access(ln, false)
	r.l1.access(ln, false)
	if !r.functional {
		r.stats.Prefetches++
		r.prefetched[ln] = true
	}
}

func (r *ref) ResetStats() {
	r.stats = Stats{}
	r.prefetched = map[uint64]bool{}
	r.swPrefetched = map[uint64]bool{}
}

func (r *ref) Flush() {
	r.l1.clear()
	r.l2.clear()
	r.tlb.clear()
	for i := range r.streams {
		r.streams[i] = refStream{}
	}
	r.prefetched = map[uint64]bool{}
	r.swPrefetched = map[uint64]bool{}
}

type hwEvent struct {
	kind EventKind
	addr uint64
}

type eventLog []hwEvent

func (l *eventLog) HardwareEvent(kind EventKind, addr uint64) {
	*l = append(*l, hwEvent{kind, addr})
}

// oracleStream generates the access stream: segments of random pages
// from a pool wider than the DTLB, ascending and descending line runs
// (stream prefetcher), revisits of the last few addresses and their
// neighbouring lines (L1 hits, on demanded and on prefetched lines),
// and segments confined to a few pages that share one way-predictor
// slot. The last kind is what makes a wrong DTLB prediction observable:
// while its pages sit in the TLB together the slot names the wrong way
// for all but one of them, and it goes on naming a way after a long
// segment of another kind has evicted the page and refilled the way.
type oracleStream struct {
	rng     *rand.Rand
	cfg     Config
	pages   int
	left    int
	kind    int
	aliases []uint64 // the current segment's pages of one predictor slot
	cursor  uint64
	history []uint64
}

func (s *oracleStream) next() (addr uint64, write bool) {
	if s.left == 0 {
		s.kind = s.rng.Intn(5)
		s.left = 20 + s.rng.Intn(300)
		s.aliases = predictorAliases[s.rng.Intn(len(predictorAliases))]
		s.cursor = uint64(s.rng.Intn(s.pages)) * uint64(s.cfg.PageSize)
		if s.kind == 2 {
			// Start a pool above so the run never descends below zero.
			s.cursor += uint64(s.pages) * uint64(s.cfg.PageSize)
		}
	}
	s.left--
	page, line := uint64(s.cfg.PageSize), uint64(s.cfg.LineSize)
	switch s.kind {
	case 0: // any page of the pool
		addr = uint64(s.rng.Intn(s.pages))*page + uint64(s.rng.Intn(int(page)))
	case 1: // ascending lines
		s.cursor += line
		addr = s.cursor
	case 2: // descending lines
		s.cursor -= line
		addr = s.cursor
	case 3: // recent addresses and the lines after them
		recent := s.history[max(0, len(s.history)-16):]
		if len(recent) == 0 {
			recent = []uint64{s.cursor}
		}
		addr = recent[s.rng.Intn(len(recent))] + uint64(s.rng.Intn(4))*line
	default: // pages of one predictor slot
		addr = s.aliases[s.rng.Intn(len(s.aliases))]*page + uint64(s.rng.Intn(int(page)))
	}
	addr &^= 7
	s.history = append(s.history, addr)
	return addr, s.rng.Intn(4) == 0
}

// predictorAliases lists, per way-predictor slot, the first few of the
// low pages that hash to it.
var predictorAliases = func() [][]uint64 {
	sets := make([][]uint64, 1<<tlbPredBits)
	for page := uint64(0); page < 16<<tlbPredBits; page++ {
		if slot := tlbPredSlot(page); len(sets[slot]) < 8 {
			sets[slot] = append(sets[slot], page)
		}
	}
	return slices.DeleteFunc(sets, func(pages []uint64) bool { return len(pages) < 4 })
}()

func TestOracleLockStep(t *testing.T) {
	pressured := tiny()
	pressured.TLBEntries = 32 // smallest array that still gets a way index
	pressured.PrefetchEnabled = true
	pressured.PrefetchStreams = 4
	// An L2 smaller than the L1: lines outlive their L2 copy, so the
	// stream prefetcher keeps being asked for lines that are L1-resident
	// already (and must still be attributed on their next touch).
	shallow := pressured
	shallow.L1Size, shallow.L1Assoc = 16*64, 4
	shallow.L2Size, shallow.L2Assoc = 8*64, 2
	for _, tc := range []struct {
		name string
		cfg  Config
		sw   bool // software-prefetch model on: both attribution sets in play
	}{
		{"p4", DefaultP4(), false},
		{"pressured", pressured, false},
		{"shallow", shallow, false},
		{"p4-sw", DefaultP4(), true},
		{"pressured-sw", pressured, true},
		{"shallow-sw", shallow, true},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				oracleRun(t, tc.cfg, tc.sw, seed, 60_000)
			})
		}
	}
}

func oracleRun(t *testing.T, cfg Config, sw bool, seed int64, n int) {
	h, r := New(cfg), newRef(cfg)
	if h.tlb.idx == nil {
		t.Fatal("DTLB has no way index: the oracle would not cover the indexed lookup")
	}
	// Accesses execute at one of a few PCs, some of which the op mix
	// turns into prefetch sites.
	cpu := &swCPU{user: true}
	r.swCPU = cpu
	if sw {
		h.EnableSwPrefetch(cpu, 2)
		r.swIssueCost = 2
	}
	var hEv, rEv eventLog
	h.SetListener(&hEv)
	r.listener = &rEv
	rng := rand.New(rand.NewSource(seed))
	s := &oracleStream{rng: rng, cfg: cfg, pages: 5 * cfg.TLBEntries}
	for i := 0; i < n; i++ {
		switch op := rng.Intn(4000); {
		case op == 0:
			h.Flush()
			r.Flush()
		case op < 4:
			h.ResetStats()
			r.ResetStats()
		case op < 24:
			if h.Functional() {
				h.SetDetailed()
			} else {
				h.SetFunctional(3)
			}
			r.functional, r.flatCost = h.Functional(), 3
		case op < 28:
			// Snapshot, run on alone so every prediction, index entry and
			// pending flag moves, then restore: the fast paths must come
			// back in step with the restored state, not the abandoned one.
			st := h.Snapshot()
			h.SetListener(nil)
			for j := 0; j < 200; j++ {
				h.Access(uint64(rng.Intn(s.pages*cfg.PageSize))&^7, 8, j&1 == 0)
			}
			h.SetListener(&hEv)
			if err := h.Restore(st); err != nil {
				t.Fatal(err)
			}
		case !sw: // the remaining operations need the software-prefetch model
		case op < 36:
			// Replace the site table: up to three of the PCs, prefetching a
			// few lines ahead or behind (some targets leave the page).
			sites := map[uint64]int64{}
			for j := rng.Intn(4); j > 0; j-- {
				sites[uint64(rng.Intn(8))] = int64(rng.Intn(9)-4) * int64(cfg.LineSize)
			}
			h.SetSwPrefetchSites(sites)
			r.swSites = sites
		case op < 200 && i > 0:
			// An explicit prefetch near the stream, in either lane.
			addr := s.history[rng.Intn(len(s.history))] + uint64(rng.Intn(4*cfg.LineSize))
			if got, want := h.SoftwarePrefetch(addr), r.SoftwarePrefetch(addr); got != want {
				t.Fatalf("before access %d: SoftwarePrefetch(%#x) cost %d, reference %d", i, addr, got, want)
			}
		}
		addr, write := s.next()
		cpu.pc, cpu.user = uint64(rng.Intn(8)), rng.Intn(16) != 0
		got, want := h.Access(addr, 8, write), r.Access(addr, write)
		if got != want {
			t.Fatalf("access %d (%#x write=%v): cost %d, reference %d", i, addr, write, got, want)
		}
		if !slices.Equal(hEv, rEv) {
			t.Fatalf("access %d (%#x): events %v, reference %v", i, addr, hEv, rEv)
		}
		hEv, rEv = hEv[:0], rEv[:0]
		if h.Stats() != r.stats {
			t.Fatalf("access %d (%#x): stats %+v, reference %+v", i, addr, h.Stats(), r.stats)
		}
		probe := s.history[rng.Intn(len(s.history))]
		if got, want := h.L1Contains(probe), r.l1.contains(probe/r.line); got != want {
			t.Fatalf("access %d: L1Contains(%#x) = %v, reference %v", i, probe, got, want)
		}
	}
}
