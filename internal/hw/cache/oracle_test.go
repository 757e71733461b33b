package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential oracle for the hierarchy's host-side fast paths. ref is
// a deliberately naive model of the same machine — per-set slices
// scanned linearly, a Go map for each prefetched-line set, no DTLB way
// predictor, no pending flags, no resident-line table — driven in
// lock-step with Hierarchy over seeded random streams. Anything the
// fast paths get wrong (a prediction trusted without its compare, an
// exact DTLB scan that picks another way or victim, a pending flag
// lost, a table slot outliving its line) shows up as a differing cost,
// event, counter or residency answer on the access where it first
// matters.
// A second Hierarchy takes the same stream through Access alone, and
// its snapshot bytes hold the lane's stamps and dirty bits exact.

type refLine struct {
	key          uint64
	valid, dirty bool
	lru          uint64
}

type refArray struct {
	sets  [][]refLine
	stamp uint64
	// What the stream has made the array do, for the coverage check.
	fills, evictions, writebacks int
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
	a.fills++
	if set[victim].valid {
		a.evictions++
	}
	if writeback {
		a.writebacks++
	}
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
	// orphans counts stream prefetches of a line L1 holds and L2 no
	// longer does: the fill goes to L2 alone and the L1 way turns pending.
	orphans int
}

func newRef(cfg Config) *ref {
	r := &ref{
		l1:           newRefArray(cfg.L1Size/cfg.LineSize, cfg.L1Assoc),
		l2:           newRefArray(l2Size/cfg.LineSize, l2Assoc),
		tlb:          newRefArray(tlbEntries, tlbEntries),
		prefetched:   map[uint64]bool{},
		swPrefetched: map[uint64]bool{},
		line:         uint64(cfg.LineSize),
		pageSz:       uint64(cfg.PageSize),
	}
	if cfg.PrefetchEnabled {
		r.streams = make([]refStream, prefetchStreams)
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
	cycles := uint64(l1HitCycles)
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
		cycles += tlbMissCycles
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
		cycles += l2HitCycles
		r.event(EventL1Miss, addr)
		hit, wb = r.l2.access(ln, write)
		if !hit {
			if count {
				st.L2Misses++
				if wb {
					st.Writebacks++
				}
			}
			cycles += memCycles
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
	if r.l1.contains(ln) {
		if r.l2.contains(ln) {
			return
		}
		r.orphans++
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
// segments confined to a few pages that share one way-predictor slot,
// and scripted segments that leave a line in L1 but not in L2 and then
// stream the prefetcher up to it. The predictor-slot kind is what makes
// a wrong DTLB prediction observable: while its pages sit in the TLB
// together the slot names the wrong way for all but one of them, and it
// goes on naming a way after a long segment of another kind has evicted
// the page and refilled the way.
type oracleStream struct {
	rng     *rand.Rand
	cfg     Config
	pages   int
	left    int
	kind    int
	aliases []uint64 // the current segment's pages of one predictor slot
	script  []uint64 // the scripted segment's remaining addresses
	cursor  uint64
	history []uint64
}

func (s *oracleStream) next() (addr uint64, write bool) {
	page, line := uint64(s.cfg.PageSize), uint64(s.cfg.LineSize)
	if s.left == 0 {
		s.kind = s.rng.Intn(6)
		s.left = 20 + s.rng.Intn(300)
		s.aliases = predictorAliases[s.rng.Intn(len(predictorAliases))]
		s.cursor = uint64(s.rng.Intn(s.pages)) * page
		switch s.kind {
		case 2:
			// Start a pool above so the run never descends below zero.
			s.cursor += uint64(s.pages) * page
		case 5:
			// A line four pools up, where no other kind reaches, so the
			// lines below it miss L2 and train a stream.
			pool := uint64(s.pages) * page / line
			orphan := 4*pool + uint64(s.rng.Intn(int(pool)))
			s.script = s.script[:0]
			for _, l := range append(l2Orphan(orphan, s.cfg.LineSize), orphan-2, orphan-1, orphan) {
				s.script = append(s.script, l*line)
			}
			s.left = len(s.script)
		}
	}
	s.left--
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
	case 4: // pages of one predictor slot
		addr = s.aliases[s.rng.Intn(len(s.aliases))]*page + uint64(s.rng.Intn(int(page)))
	default: // the script
		addr, s.script = s.script[0], s.script[1:]
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
	// A 4-line L1 with the stream prefetcher on: most accesses miss L1,
	// so its fills, evictions and write-backs, and the prefetcher's
	// installs over demanded lines, come thick and fast.
	pressured := tiny()
	pressured.PrefetchEnabled = true
	// Pages of more lines than the resident-line table has slots: a
	// DTLB eviction drops them by scanning the table.
	bigPages := DefaultP4()
	bigPages.PageSize = 64 * 1024
	for _, tc := range []struct {
		name string
		cfg  Config
		sw   bool // software-prefetch model on: both attribution sets in play
	}{
		{"p4", DefaultP4(), false},
		{"pressured", pressured, false},
		{"p4-sw", DefaultP4(), true},
		{"pressured-sw", pressured, true},
		{"bigpages", bigPages, false},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				oracleRun(t, tc.cfg, tc.sw, seed, 60_000)
			})
		}
	}
}

// laneAccess is one demand access through the lane: HitAt at pc first,
// and Access when HitAt declines.
func laneAccess(h *Hierarchy, pc, addr uint64, write bool) uint64 {
	if h.HitAt(pc, addr, write) {
		return h.HitCycles()
	}
	return h.Access(addr, 8, write)
}

func oracleRun(t *testing.T, cfg Config, sw bool, seed int64, n int) {
	// h takes every access through laneAccess, twin through Access.
	h, twin, r := New(cfg), New(cfg), newRef(cfg)
	both := func(f func(*Hierarchy)) { f(h); f(twin) }
	// Accesses execute at one of a few PCs, some of which the op mix
	// turns into prefetch sites.
	cpu := &swCPU{user: true}
	r.swCPU = cpu
	if sw {
		both(func(h *Hierarchy) { h.EnableSwPrefetch(cpu, 2) })
		r.swIssueCost = 2
	}
	var hEv, rEv eventLog
	h.SetListener(&hEv)
	r.listener = &rEv
	rng := rand.New(rand.NewSource(seed))
	s := &oracleStream{rng: rng, cfg: cfg, pages: 5 * tlbEntries}
	for i := 0; i < n; i++ {
		// Stats and snapshots settle the lane's counts, so h is compared
		// whole on a few accesses only and its counts pile up between.
		settle := false
		switch op := rng.Intn(4000); {
		case op == 0:
			both((*Hierarchy).Flush)
			r.Flush()
		case op < 4:
			both((*Hierarchy).ResetStats)
			r.ResetStats()
		case op < 24:
			if h.Functional() {
				both((*Hierarchy).SetDetailed)
			} else {
				both(func(h *Hierarchy) { h.SetFunctional(3) })
			}
			r.functional, r.flatCost = h.Functional(), 3
		case op < 28:
			// Snapshot, run on alone so every prediction, index entry,
			// pending flag and table slot moves, then restore: the fast
			// paths must come back in step with the restored state, not
			// the abandoned one. Half the accesses revisit recent
			// addresses, so HitAt serves some, and its counts must not
			// outlive the restore.
			st := h.Snapshot()
			h.SetListener(nil)
			recent := s.history[max(0, len(s.history)-64):]
			for j := 0; j < 200; j++ {
				addr := uint64(rng.Intn(s.pages*cfg.PageSize)) &^ 7
				if j&2 == 0 && len(recent) > 0 {
					addr = recent[rng.Intn(len(recent))]
				}
				laneAccess(h, cpu.pc, addr, j&1 == 0)
			}
			h.SetListener(&hEv)
			if err := h.Restore(st); err != nil {
				t.Fatal(err)
			}
		case op < 44:
			settle = true
		case !sw: // the remaining operations need the software-prefetch model
		case op < 52:
			// Replace the site table: up to three of the PCs, prefetching a
			// few lines ahead or behind (some targets leave the page).
			sites := map[uint64]int64{}
			for j := rng.Intn(4); j > 0; j-- {
				sites[uint64(rng.Intn(8))] = int64(rng.Intn(9)-4) * int64(cfg.LineSize)
			}
			both(func(h *Hierarchy) { h.SetSwPrefetchSites(sites) })
			r.swSites = sites
		case op < 216 && i > 0:
			// An explicit prefetch near the stream, in either lane.
			addr := s.history[rng.Intn(len(s.history))] + uint64(rng.Intn(4*cfg.LineSize))
			twin.SoftwarePrefetch(addr)
			if got, want := h.SoftwarePrefetch(addr), r.SoftwarePrefetch(addr); got != want {
				t.Fatalf("before access %d: SoftwarePrefetch(%#x) cost %d, reference %d", i, addr, got, want)
			}
		}
		addr, write := s.next()
		cpu.pc, cpu.user = uint64(rng.Intn(8)), rng.Intn(16) != 0
		twin.Access(addr, 8, write)
		got, want := laneAccess(h, cpu.pc, addr, write), r.Access(addr, write)
		if got != want {
			t.Fatalf("access %d (%#x write=%v): cost %d, reference %d", i, addr, write, got, want)
		}
		if !slices.Equal(hEv, rEv) {
			t.Fatalf("access %d (%#x): events %v, reference %v", i, addr, hEv, rEv)
		}
		hEv, rEv = hEv[:0], rEv[:0]
		if twin.Stats() != r.stats {
			t.Fatalf("access %d (%#x): stats %+v, reference %+v", i, addr, twin.Stats(), r.stats)
		}
		if settle || i == n-1 {
			if h.Stats() != r.stats {
				t.Fatalf("access %d (%#x): lane stats %+v, reference %+v", i, addr, h.Stats(), r.stats)
			}
			if got, want := h.Snapshot(), twin.Snapshot(); !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("access %d (%#x): lane snapshot differs from Access alone", i, addr)
			}
		}
		probe := s.history[rng.Intn(len(s.history))]
		if got, want := h.L1Contains(probe), r.l1.contains(probe/r.line); got != want {
			t.Fatalf("access %d: L1Contains(%#x) = %v, reference %v", i, probe, got, want)
		}
	}
	// A path the stream never took is a path the comparison never held.
	for _, a := range []struct {
		name  string
		arr   *refArray
		dirty bool // the DTLB has no dirty bits and never writes back
	}{{"L1", r.l1, true}, {"L2", r.l2, true}, {"DTLB", r.tlb, false}} {
		if a.arr.fills == 0 || a.arr.evictions == 0 || a.dirty && a.arr.writebacks == 0 {
			t.Errorf("%s: %d fills, %d evictions, %d write-backs", a.name, a.arr.fills, a.arr.evictions, a.arr.writebacks)
		}
	}
	if r.orphans == 0 {
		t.Error("no stream prefetch found its line in L1 but not in L2")
	}
}
