// Package cache models the Pentium 4 memory hierarchy the paper
// measures against: a small L1 data cache, a unified L2, a data TLB,
// and a hardware stream prefetcher (§6.1: 16 KB L1D, 1 MB L2, 128-byte
// cache lines, hardware-based prefetching of data streams).
//
// The model is a timing/tag model: it tracks which lines are resident
// and charges cycle costs, while the actual data lives in the flat
// simulated memory (package mem). Every L1 miss, L2 miss and DTLB miss
// is reported to an event listener; the PEBS unit (package pebs)
// subscribes to these events to drive precise event-based sampling.
package cache

import (
	"fmt"
	"strings"

	"hpmvm/internal/obs"
)

// EventKind identifies a countable hardware event. The P4 exposes many
// more, but these are the ones the paper samples (§4.1: "L1, L2 cache
// misses and DTLB misses").
type EventKind int

const (
	// EventL1Miss fires on every L1 data-cache load or store miss.
	EventL1Miss EventKind = iota
	// EventL2Miss fires on every L2 miss (i.e. memory access).
	EventL2Miss
	// EventDTLBMiss fires on every data-TLB miss.
	EventDTLBMiss
	// EventL1IMiss fires on every instruction-cache miss, with addr the
	// fetched PC. Only raised when the opt-in I-cache model is enabled
	// (EnableICache); kept distinct from EventL1Miss so a PEBS session
	// sampling data misses never sees code addresses as data addresses.
	EventL1IMiss
	// NumEventKinds bounds the valid kinds; values in [0, NumEventKinds)
	// are samplable events.
	NumEventKinds
)

// String returns the conventional event name.
func (k EventKind) String() string {
	switch k {
	case EventL1Miss:
		return "L1_MISS"
	case EventL2Miss:
		return "L2_MISS"
	case EventDTLBMiss:
		return "DTLB_MISS"
	case EventL1IMiss:
		return "L1I_MISS"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// ParseEventKind resolves the spelling of a samplable event that the
// CLIs and the /v1 API accept: l1, l2, dtlb or l1i, optionally suffixed
// _miss, in any case; the empty string selects the default (L1 misses).
func ParseEventKind(s string) (EventKind, error) {
	switch strings.ToLower(s) {
	case "", "l1", "l1_miss":
		return EventL1Miss, nil
	case "l2", "l2_miss":
		return EventL2Miss, nil
	case "dtlb", "dtlb_miss":
		return EventDTLBMiss, nil
	case "l1i", "l1i_miss":
		return EventL1IMiss, nil
	}
	return 0, fmt.Errorf("unknown event %q (l1, l2, dtlb or l1i)", s)
}

// Listener receives hardware events as they happen. addr is the data
// address whose access caused the event.
type Listener interface {
	HardwareEvent(kind EventKind, addr uint64)
}

// Config describes the cache geometry and the cycle cost model.
type Config struct {
	LineSize int // bytes per cache line (shared by L1 and L2)

	L1Size  int // total L1D bytes
	L1Assoc int // L1D associativity

	L2Size  int // total L2 bytes
	L2Assoc int // L2 associativity

	TLBEntries int // DTLB entries (fully associative)
	PageSize   int // virtual page size covered by one TLB entry

	// Cycle costs. An access always pays L1HitCycles; misses add the
	// corresponding penalty on top.
	L1HitCycles   uint64 // cost of an L1 hit
	L2HitCycles   uint64 // additional cost when L1 misses but L2 hits
	MemCycles     uint64 // additional cost when L2 misses
	TLBMissCycles uint64 // additional cost of a DTLB miss (page walk)

	// PrefetchEnabled turns on the stream prefetcher.
	PrefetchEnabled bool
	// PrefetchStreams is the number of concurrent streams tracked.
	PrefetchStreams int
}

// DefaultP4 returns the configuration matching the paper's experimental
// platform (§6.1): 3 GHz Pentium 4, 16 KB L1D, 1 MB L2, 128-byte lines,
// hardware prefetching. Latencies follow published P4 figures scaled to
// round numbers.
func DefaultP4() Config {
	return Config{
		LineSize:        128,
		L1Size:          16 * 1024,
		L1Assoc:         4,
		L2Size:          1024 * 1024,
		L2Assoc:         8,
		TLBEntries:      64,
		PageSize:        4096,
		L1HitCycles:     2,
		L2HitCycles:     18,
		MemCycles:       200,
		TLBMissCycles:   30,
		PrefetchEnabled: true,
		PrefetchStreams: 8,
	}
}

// Validate checks that the geometry is internally consistent.
func (c Config) Validate() error {
	checkPow2 := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("cache: %s must be a positive power of two, got %d", name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"LineSize", c.LineSize}, {"L1Size", c.L1Size}, {"L1Assoc", c.L1Assoc},
		{"L2Size", c.L2Size}, {"L2Assoc", c.L2Assoc}, {"PageSize", c.PageSize},
	} {
		if err := checkPow2(p.name, p.v); err != nil {
			return err
		}
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("cache: TLBEntries must be positive, got %d", c.TLBEntries)
	}
	if c.L1Size < c.LineSize*c.L1Assoc {
		return fmt.Errorf("cache: L1 too small for %d-way associativity", c.L1Assoc)
	}
	if c.L2Size < c.LineSize*c.L2Assoc {
		return fmt.Errorf("cache: L2 too small for %d-way associativity", c.L2Assoc)
	}
	return nil
}

// line is one cache line's tag state.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-use stamp
}

// setAssoc is a generic set-associative tag array with LRU replacement.
// Lines are stored in one flat row-major slice (set s occupies
// lines[s*assoc : (s+1)*assoc]) so a probe is a single bounds-checked
// slice index rather than a pointer chase through per-set slices.
//
// The hot path is split into probe (hit test + LRU touch) and fill
// (LRU eviction + insert): Hierarchy.Access calls probe with the
// already-shifted line/page address, so the offset shift and set/tag
// masking happen once per level instead of being recomputed inside a
// combined lookup.
type setAssoc struct {
	lines    []line
	assoc    uint64
	setMask  uint64
	setBits  uint
	offBits  uint
	stamp    uint64
	accesses uint64
	misses   uint64

	// MRU memo: recently hit or filled lines, direct-mapped by the low
	// key bits so lines from interleaved regions (stack, nursery,
	// mature space) can stay memoized at once. A probe whose key
	// matches skips the set scan and touches the line directly — pure
	// host-side memoization whose counter/LRU/dirty mutations are
	// identical to the scan's, so simulated state is unchanged (the
	// memo is never serialized; see snapshot.go). Invalidated whenever
	// lines[] changes under it: fill re-points its slot at the filled
	// way, invalidateAll and snapshot decode clear all slots.
	memoOK  [memoSlots]bool
	memoKey [memoSlots]uint64
	memoIdx [memoSlots]uint64

	// idx, when non-nil, is an exact key→way index replacing the way
	// scan behind the memo — used for the fully-associative DTLB, whose
	// 64-way scans dominate probe cost otherwise. Maintained by fill
	// (mirror of the valid lines), cleared by invalidateAll and
	// rebuilt by snapshot decode. Only enabled for single-set arrays,
	// where tag == key keeps the mirror trivial.
	idx *wayIndex
}

// memoSlots is the number of MRU memo slots; must be a power of two.
const memoSlots = 8

func newSetAssoc(totalLines, assoc int, offBits uint) *setAssoc {
	nsets := totalLines / assoc
	if nsets < 1 {
		nsets = 1
	}
	sa := &setAssoc{
		lines:   make([]line, nsets*assoc),
		assoc:   uint64(assoc),
		setMask: uint64(nsets - 1),
		setBits: uint(popcount(uint64(nsets - 1))),
		offBits: offBits,
	}
	if nsets == 1 && assoc >= 32 {
		sa.idx = newWayIndex(assoc)
	}
	return sa
}

// probe tests whether the line identified by key (addr >> offBits) is
// resident, updating the LRU stamp and dirty bit on a hit. Each probe
// advances the stamp exactly once; a following fill reuses it, so the
// probe+fill pair is stamp-equivalent to the previous combined lookup.
func (sa *setAssoc) probe(key uint64, markDirty bool) bool {
	sa.stamp++
	sa.accesses++
	slot := key & (memoSlots - 1)
	if sa.memoOK[slot] && sa.memoKey[slot] == key {
		ln := &sa.lines[sa.memoIdx[slot]]
		ln.lru = sa.stamp
		if markDirty {
			ln.dirty = true
		}
		return true
	}
	if sa.idx != nil {
		way, ok := sa.idx.get(key)
		if !ok {
			return false
		}
		ln := &sa.lines[way]
		ln.lru = sa.stamp
		if markDirty {
			ln.dirty = true
		}
		sa.memoOK[slot], sa.memoKey[slot], sa.memoIdx[slot] = true, key, way
		return true
	}
	base := (key & sa.setMask) * sa.assoc
	set := sa.lines[base : base+sa.assoc]
	tag := key >> sa.setBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = sa.stamp
			if markDirty {
				set[i].dirty = true
			}
			sa.memoOK[slot], sa.memoKey[slot], sa.memoIdx[slot] = true, key, base+uint64(i)
			return true
		}
	}
	return false
}

// fill inserts the line for key after a failed probe, evicting the LRU
// way. It reports whether the eviction wrote back a dirty line.
func (sa *setAssoc) fill(key uint64, markDirty bool) (writeback bool) {
	sa.misses++
	base := (key & sa.setMask) * sa.assoc
	set := sa.lines[base : base+sa.assoc]
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
	way := base + uint64(victim)
	if sa.idx != nil {
		// Single-set array: tag == key, so the index mirror updates
		// straight from the evicted and inserted tags.
		if set[victim].valid {
			sa.idx.del(set[victim].tag)
		}
		sa.idx.put(key, way)
	}
	set[victim] = line{tag: key >> sa.setBits, valid: true, dirty: markDirty, lru: sa.stamp}
	// The evicted line may be memoized under another key's slot; any
	// slot pointing at the replaced way is now stale.
	for s := range sa.memoIdx {
		if sa.memoIdx[s] == way {
			sa.memoOK[s] = false
		}
	}
	// Then memoize the filled way: the line just missed is the
	// likeliest next hit.
	slot := key & (memoSlots - 1)
	sa.memoOK[slot], sa.memoKey[slot], sa.memoIdx[slot] = true, key, way
	return writeback
}

// lookup probes for the line containing addr. If insert is true and the
// line is absent, it is filled (evicting LRU). It returns hit, and
// whether the eviction wrote back a dirty line.
func (sa *setAssoc) lookup(addr uint64, insert, markDirty bool) (hit, writeback bool) {
	key := addr >> sa.offBits
	if sa.probe(key, markDirty) {
		return true, false
	}
	if insert {
		writeback = sa.fill(key, markDirty)
	}
	return false, writeback
}

// contains probes without updating LRU or filling.
func (sa *setAssoc) contains(addr uint64) bool {
	key := addr >> sa.offBits
	base := (key & sa.setMask) * sa.assoc
	set := sa.lines[base : base+sa.assoc]
	tag := key >> sa.setBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// invalidateAll clears every line (used when a run is reset).
func (sa *setAssoc) invalidateAll() {
	for i := range sa.lines {
		sa.lines[i] = line{}
	}
	sa.memoOK = [memoSlots]bool{}
	if sa.idx != nil {
		sa.idx.clear()
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		n += int(x & 1)
		x >>= 1
	}
	return n
}

// Stats aggregates hierarchy counters.
type Stats struct {
	Accesses     uint64 // demand accesses (loads + stores)
	Loads        uint64
	Stores       uint64
	L1Misses     uint64
	L2Misses     uint64
	TLBMisses    uint64
	Writebacks   uint64
	Prefetches   uint64 // prefetch requests issued
	PrefetchHits uint64 // demand accesses that hit a prefetched line
	Cycles       uint64 // total memory-access cycles charged

	// Software-prefetch attribution (EnableSwPrefetch): issues and first
	// demand touches of sw-prefetched lines, kept apart from the
	// hardware-stream counters above so PrefetchAccuracy and the
	// ablation tables never conflate the two mechanisms. Tagged
	// omitempty so disabled-path response bodies stay byte-identical to
	// the pre-swprefetch encoding (the v1 rule: fields are only ever
	// added, and added as omitempty).
	SwPrefetches   uint64 `json:"SwPrefetches,omitempty"`
	SwPrefetchHits uint64 `json:"SwPrefetchHits,omitempty"`
}

// L1MissRate returns L1 misses per demand access.
func (s Stats) L1MissRate() float64 {
	return ratio(s.L1Misses, s.Accesses)
}

// L2MissRate returns L2 misses per demand access (the global miss
// rate: the fraction of accesses that go all the way to memory).
func (s Stats) L2MissRate() float64 {
	return ratio(s.L2Misses, s.Accesses)
}

// L2LocalMissRate returns L2 misses per L2 lookup (i.e. per L1 miss).
func (s Stats) L2LocalMissRate() float64 {
	return ratio(s.L2Misses, s.L1Misses)
}

// TLBMissRate returns DTLB misses per demand access.
func (s Stats) TLBMissRate() float64 {
	return ratio(s.TLBMisses, s.Accesses)
}

// PrefetchAccuracy returns the fraction of issued hardware-stream
// prefetches that were later demanded within the same measurement
// window. Software prefetches are accounted separately
// (SwPrefetchAccuracy).
func (s Stats) PrefetchAccuracy() float64 {
	return ratio(s.PrefetchHits, s.Prefetches)
}

// SwPrefetchAccuracy returns the fraction of issued software prefetches
// that were later demanded within the same measurement window.
func (s Stats) SwPrefetchAccuracy() float64 {
	return ratio(s.SwPrefetchHits, s.SwPrefetches)
}

// CyclesPerAccess returns the mean memory-access cost in cycles.
func (s Stats) CyclesPerAccess() float64 {
	return ratio(s.Cycles, s.Accesses)
}

// ratio divides two counters, mapping an empty denominator to 0 so
// rates over an empty measurement window are well-defined.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// IStats aggregates the opt-in instruction-cache counters. It is a
// separate struct from Stats on purpose: Stats' %+v rendering is
// frozen by the golden result fingerprints, so I-side counters must
// never be added there.
type IStats struct {
	Fetches  uint64 // I-fetch probes (one per cache-line transition)
	Misses   uint64 // L1I misses
	MemFills uint64 // L1I misses that also missed the unified L2
	Cycles   uint64 // fetch stall cycles charged
}

// MissRate returns L1I misses per fetch probe — the code-layout
// optimization's assessment signal.
func (s IStats) MissRate() float64 { return ratio(s.Misses, s.Fetches) }

// SwPrefetchCPU gives the hierarchy read access to the issuing CPU's
// architectural state: the software-prefetch model needs the PC of the
// instruction performing the current demand access (both interpreter
// loops flush the PC before every Access call-out) to decide whether an
// injected prefetch site is executing, and the privilege mode to ignore
// VM-service accesses made with a stale user PC.
type SwPrefetchCPU interface {
	SamplePC() uint64
	UserMode() bool
}

// swState is the opt-in software-prefetch model (EnableSwPrefetch):
// the installed site table plus the attribution set mirroring the
// hardware prefetcher's, kept separate so the two mechanisms stay
// individually measurable.
type swState struct {
	cpu       SwPrefetchCPU
	sites     map[uint64]int64 // injected site: PC -> prefetch delta in bytes
	issueCost uint64

	// prefetched/mask mirror Hierarchy.prefetched/pfMask for lines
	// installed by software prefetches awaiting their first demand
	// touch. mask is host-side acceleration only, never serialized.
	prefetched *pfSet
	mask       uint64
}

// stream is one tracked prefetch stream.
type stream struct {
	lastLine uint64
	dir      int64 // +1 ascending, -1 descending
	conf     int   // confidence
	valid    bool
	lru      uint64
}

// Hierarchy is the complete simulated memory hierarchy.
type Hierarchy struct {
	cfg Config
	l1  *setAssoc
	l2  *setAssoc
	tlb *setAssoc
	// l1i, when non-nil, is the opt-in instruction cache
	// (EnableICache): probed by IFetch on code-line transitions,
	// backed by the unified L2. Disabled (nil) for every
	// pre-framework configuration, so golden timing is untouched.
	l1i    *setAssoc
	istats IStats
	// sw, when non-nil, is the opt-in software-prefetch model
	// (EnableSwPrefetch). Nil for every pre-framework configuration, so
	// the disabled hot path costs two pointer tests and golden timing is
	// untouched.
	sw       *swState
	streams  []stream
	stamp    uint64
	stats    Stats
	listener Listener

	// obs, when non-nil, receives a measurement-window snapshot event
	// each time a window closes; obsNow supplies the global cycle
	// stamp. Nil-gated exactly like listener so the disabled path
	// costs one pointer test on the (cold) window-reset path and
	// nothing at all on the access hot path.
	obs    *obs.Observer
	obsNow func() uint64

	lineBits uint
	pageBits uint

	prefetched *pfSet // lines currently resident due to prefetch, not yet demanded

	// pfMask is a 64-bit bloom filter over the prefetched set (bit =
	// lineAddr mod 64): the access hot path tests one bit instead of a
	// map lookup when the probed line cannot be in the set. Deletions
	// leave bits set (false positives only cost the map lookup they
	// used to always pay); the mask resets whenever the set empties or
	// is replaced. Host-side only, never serialized.
	pfMask uint64

	// functional, when set, switches Access to the fast-forward lane of
	// sampled simulation (DESIGN.md §12): every access charges the flat
	// flatCost and produces no stats, but the tag state (TLB, L1, L2,
	// stream detector) keeps evolving exactly as in detailed mode and
	// listener events still fire. This is SMARTS-style functional warming: a
	// frozen cache feels no eviction pressure during fast-forward, so
	// long-reuse-distance lines survive artificially and measured
	// regions over-hit in L2 — warming keeps the state the next detailed
	// region inherits faithful to the full access stream.
	functional bool
	flatCost   uint64
}

// New builds a hierarchy from cfg. It panics on an invalid config since
// configs are produced by code, not end users.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lineBits := log2(cfg.LineSize)
	pageBits := log2(cfg.PageSize)
	h := &Hierarchy{
		cfg:        cfg,
		l1:         newSetAssoc(cfg.L1Size/cfg.LineSize, cfg.L1Assoc, lineBits),
		l2:         newSetAssoc(cfg.L2Size/cfg.LineSize, cfg.L2Assoc, lineBits),
		tlb:        newSetAssoc(cfg.TLBEntries, cfg.TLBEntries, pageBits),
		lineBits:   lineBits,
		pageBits:   pageBits,
		prefetched: newPfSet(),
	}
	if cfg.PrefetchEnabled {
		h.streams = make([]stream, cfg.PrefetchStreams)
	}
	return h
}

func log2(v int) uint {
	var b uint
	for 1<<b < v {
		b++
	}
	return b
}

// SetListener registers the event listener (at most one; the PEBS unit
// multiplexes events itself, matching the P4's one-event-at-a-time
// PEBS restriction described in §4.1).
func (h *Hierarchy) SetListener(l Listener) { h.listener = l }

// SetObserver attaches the observability layer: the hierarchy's
// counters are registered as sampled counters (read only at snapshot
// time — the access hot path is untouched) and every window close
// emits an EvCacheWindow trace event. now supplies the global cycle
// counter for event stamps (the hierarchy has no CPU reference of its
// own). Passing a nil observer detaches.
func (h *Hierarchy) SetObserver(o *obs.Observer, now func() uint64) {
	h.obs, h.obsNow = o, now
	if o == nil {
		return
	}
	o.RegisterSampled("cache.accesses", func() uint64 { return h.stats.Accesses })
	o.RegisterSampled("cache.loads", func() uint64 { return h.stats.Loads })
	o.RegisterSampled("cache.stores", func() uint64 { return h.stats.Stores })
	o.RegisterSampled("cache.l1_misses", func() uint64 { return h.stats.L1Misses })
	o.RegisterSampled("cache.l2_misses", func() uint64 { return h.stats.L2Misses })
	o.RegisterSampled("cache.tlb_misses", func() uint64 { return h.stats.TLBMisses })
	o.RegisterSampled("cache.writebacks", func() uint64 { return h.stats.Writebacks })
	o.RegisterSampled("cache.prefetches", func() uint64 { return h.stats.Prefetches })
	o.RegisterSampled("cache.prefetch_hits", func() uint64 { return h.stats.PrefetchHits })
	o.RegisterSampled("cache.cycles", func() uint64 { return h.stats.Cycles })
	// The software-prefetch rows register only when the model is on:
	// the golden corpus freezes the disabled configurations' counter
	// set, and EnableSwPrefetch runs before the observer attaches.
	if h.sw != nil {
		o.RegisterSampled("cache.sw_prefetches", func() uint64 { return h.stats.SwPrefetches })
		o.RegisterSampled("cache.sw_prefetch_hits", func() uint64 { return h.stats.SwPrefetchHits })
	}
}

// Config returns the active configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// EnableICache attaches the opt-in instruction-cache model: a small
// L1I of the given total size and associativity (sharing the unified
// L2 and the line size) probed by IFetch. Geometry must be powers of
// two, like the data-side arrays. Must be called before the first
// access and before Snapshot/Restore; calling it twice replaces the
// array. There is no ITLB: code occupies a handful of pages that the
// real machine's ITLB covers trivially.
func (h *Hierarchy) EnableICache(size, assoc int) {
	if size <= 0 || size&(size-1) != 0 || assoc <= 0 || assoc&(assoc-1) != 0 ||
		size < h.cfg.LineSize*assoc {
		panic(fmt.Sprintf("cache: bad I-cache geometry size=%d assoc=%d line=%d",
			size, assoc, h.cfg.LineSize))
	}
	h.l1i = newSetAssoc(size/h.cfg.LineSize, assoc, h.lineBits)
	h.istats = IStats{}
}

// IStats returns the instruction-cache counters.
func (h *Hierarchy) IStats() IStats { return h.istats }

// IFetch simulates the instruction fetch of the line holding addr and
// returns the stall cycles. The CPU calls it once per code-line
// transition: an L1I hit overlaps with execution and costs nothing; a
// miss is filled from the unified L2 (L2HitCycles) or memory
// (+MemCycles) and raises EventL1IMiss. The fetch is a read probe of
// the shared L2, so heavy I-misses evict data lines — the contention
// hot/cold code layout exists to avoid.
func (h *Hierarchy) IFetch(addr uint64) uint64 {
	st := &h.istats
	st.Fetches++
	lineAddr := addr >> h.lineBits
	if h.l1i.probe(lineAddr, false) {
		return 0
	}
	h.l1i.fill(lineAddr, false)
	st.Misses++
	cycles := h.cfg.L2HitCycles
	if h.listener != nil {
		h.listener.HardwareEvent(EventL1IMiss, addr)
	}
	if !h.l2.probe(lineAddr, false) {
		h.l2.fill(lineAddr, false)
		st.MemFills++
		cycles += h.cfg.MemCycles
	}
	st.Cycles += cycles
	return cycles
}

// EnableSwPrefetch attaches the opt-in software-prefetch model: demand
// accesses executed at an installed site PC (SetSwPrefetchSites) issue
// a SoftwarePrefetch of the access address plus the site's delta, each
// non-squashed issue costing issueCost cycles. cpu supplies the current
// PC and privilege mode. Must be called before the first access and
// before Snapshot/Restore (the model adds a conditional snapshot tail);
// calling it twice replaces the model's state.
func (h *Hierarchy) EnableSwPrefetch(cpu SwPrefetchCPU, issueCost uint64) {
	h.sw = &swState{cpu: cpu, issueCost: issueCost, prefetched: newPfSet()}
}

// SetSwPrefetchSites replaces the installed software-prefetch site
// table: a map from instruction PC to the prefetch delta in bytes the
// injected prefetch adds to that instruction's operand address. The map
// is copied; passing nil or an empty map uninstalls all sites.
// Requires EnableSwPrefetch.
func (h *Hierarchy) SetSwPrefetchSites(sites map[uint64]int64) {
	m := make(map[uint64]int64, len(sites))
	for pc, d := range sites {
		m[pc] = d
	}
	h.sw.sites = m
}

// SoftwarePrefetch issues one software prefetch of the line holding
// addr and returns the cycles charged. It is a separate entry point
// from the hardware stream prefetcher's fills on purpose: software
// issues are counted (SwPrefetches) and attributed (SwPrefetchHits)
// apart from the hardware stream's, and an explicit prefetch never
// trains the stream detector — it is not a demand miss — so the two
// mechanisms stay individually ablatable. A prefetch whose line is
// already L1-resident is squashed for free; otherwise it fills L1 (and
// L2 when absent) and costs the configured issue cycles. Requires
// EnableSwPrefetch.
func (h *Hierarchy) SoftwarePrefetch(addr uint64) uint64 {
	lineAddr := addr >> h.lineBits
	lineBase := lineAddr << h.lineBits
	if h.l1.contains(lineBase) {
		return 0
	}
	if h.functional {
		// Warming lane: install the line, skip statistics and
		// attribution, exactly like the hardware prefetchLine.
		h.l2.lookup(lineBase, true, false)
		h.l1.lookup(lineBase, true, false)
		return 0
	}
	s := h.sw
	h.stats.SwPrefetches++
	h.l2.lookup(lineBase, true, false)
	h.l1.lookup(lineBase, true, false)
	s.prefetched.Add(lineAddr)
	s.mask |= 1 << (lineAddr & 63)
	return s.issueCost
}

// swSiteIssue executes the software-prefetch instruction injected at
// the current PC, if any: a recompiled site issues a prefetch of its
// operand address plus the site delta alongside every demand access it
// performs. Gated on user mode because VM services (allocation, GC)
// access memory with a stale user PC that could alias a site. The
// injected instruction never prefetches across the page its operand
// lies in — translation past the boundary could fault — so out-of-page
// targets are dropped at issue.
func (h *Hierarchy) swSiteIssue(addr uint64) uint64 {
	s := h.sw
	if len(s.sites) == 0 || !s.cpu.UserMode() {
		return 0
	}
	delta, ok := s.sites[s.cpu.SamplePC()]
	if !ok {
		return 0
	}
	target := uint64(int64(addr) + delta)
	if target>>h.pageBits != addr>>h.pageBits {
		return 0
	}
	return h.SoftwarePrefetch(target)
}

// ResetStats closes the current measurement window: the counters are
// zeroed and the prefetched-line attribution set is cleared, so the
// next window's PrefetchHits only count prefetches issued inside that
// window (leftover entries used to let a window report more prefetch
// hits than prefetches — back-to-back windows were not independent).
//
// Physical machine state is deliberately retained: cache and TLB
// contents and the stream detector's trained streams are hardware
// state whose reset would change subsequent timing, which a statistics
// window close must never do. Use Flush for a full hardware reset.
// TestResetStatsWindowIndependence pins both halves of this contract.
func (h *Hierarchy) ResetStats() {
	if h.obs != nil {
		st := &h.stats
		h.obs.Emit(obs.EvCacheWindow, h.obsNow(), st.Accesses, st.L1Misses, st.Cycles)
	}
	h.stats = Stats{}
	h.istats = IStats{}
	if h.prefetched.Len() != 0 {
		h.prefetched.Clear()
	}
	h.pfMask = 0
	if h.sw != nil {
		if h.sw.prefetched.Len() != 0 {
			h.sw.prefetched.Clear()
		}
		h.sw.mask = 0
	}
}

// Flush invalidates all cache and TLB state.
func (h *Hierarchy) Flush() {
	h.l1.invalidateAll()
	h.l2.invalidateAll()
	h.tlb.invalidateAll()
	if h.l1i != nil {
		h.l1i.invalidateAll()
	}
	for i := range h.streams {
		h.streams[i] = stream{}
	}
	h.prefetched.Clear()
	h.pfMask = 0
	if h.sw != nil {
		// The attribution set is hardware-adjacent state and clears with
		// the lines it tracks; the site table is program text (injected
		// prefetch instructions) and survives a hardware flush.
		h.sw.prefetched.Clear()
		h.sw.mask = 0
	}
}

// SetFunctional switches the hierarchy into functional fast-forward
// mode: every Access returns flatCost and updates no stats, while tag
// state keeps warming and listener events keep firing (see the
// functional field). SetDetailed resumes cycle-exact timing from that
// warmed state.
func (h *Hierarchy) SetFunctional(flatCost uint64) {
	h.functional = true
	h.flatCost = flatCost
}

// SetDetailed returns the hierarchy to cycle-exact modeling.
func (h *Hierarchy) SetDetailed() { h.functional = false }

// Functional reports whether the hierarchy is in fast-forward mode.
func (h *Hierarchy) Functional() bool { return h.functional }

// Access simulates one demand access of the given size at addr and
// returns the cycle cost. write distinguishes stores from loads.
// Accesses are assumed not to cross a cache line (the CPU only issues
// naturally aligned accesses of at most 8 bytes).
//
// This is the single hottest function in the simulator — every load
// and store of every simulated instruction lands here — so the common
// case (TLB hit, L1 hit, no outstanding prefetches) is kept branch-
// lean: line and page addresses are shifted once and handed to the
// probe fast path, the prefetched-line bookkeeping is screened by the
// pfMask bloom bit before the set is consulted, and listener delivery
// is a nil check on the miss paths only (TestAccessFingerprint pins
// the exact behavior).
func (h *Hierarchy) Access(addr uint64, size int, write bool) uint64 {
	if h.functional {
		h.warmAccess(addr, write)
		return h.flatCost
	}
	st := &h.stats
	st.Accesses++
	if write {
		st.Stores++
	} else {
		st.Loads++
	}
	cycles := h.cfg.L1HitCycles

	// DTLB.
	if !h.tlb.probe(addr>>h.pageBits, false) {
		h.tlb.fill(addr>>h.pageBits, false)
		st.TLBMisses++
		cycles += h.cfg.TLBMissCycles
		if h.listener != nil {
			h.listener.HardwareEvent(EventDTLBMiss, addr)
		}
	}

	lineAddr := addr >> h.lineBits

	// First demand touch of a prefetched line counts as a prefetch
	// hit, whether it is found in L1 (usual case) or deeper. The bloom
	// mask screens out lines that cannot be in the outstanding set, so
	// the common case is a single bit test instead of a map lookup.
	if h.pfMask&(1<<(lineAddr&63)) != 0 && h.prefetched.Contains(lineAddr) {
		st.PrefetchHits++
		h.prefetched.Delete(lineAddr)
		if h.prefetched.Len() == 0 {
			h.pfMask = 0
		}
	}
	if h.sw != nil && h.sw.mask&(1<<(lineAddr&63)) != 0 && h.sw.prefetched.Contains(lineAddr) {
		st.SwPrefetchHits++
		h.sw.prefetched.Delete(lineAddr)
		if h.sw.prefetched.Len() == 0 {
			h.sw.mask = 0
		}
	}

	// L1 hit: the fast path out.
	if h.l1.probe(lineAddr, write) {
		if h.sw != nil {
			cycles += h.swSiteIssue(addr)
		}
		st.Cycles += cycles
		return cycles
	}
	if h.l1.fill(lineAddr, write) {
		st.Writebacks++
	}
	st.L1Misses++
	cycles += h.cfg.L2HitCycles
	if h.listener != nil {
		h.listener.HardwareEvent(EventL1Miss, addr)
	}

	// L2.
	if !h.l2.probe(lineAddr, write) {
		wb := h.l2.fill(lineAddr, write)
		st.L2Misses++
		cycles += h.cfg.MemCycles
		if h.listener != nil {
			h.listener.HardwareEvent(EventL2Miss, addr)
		}
		if wb {
			st.Writebacks++
		}
		h.trainPrefetcher(lineAddr)
	}

	if h.sw != nil {
		cycles += h.swSiteIssue(addr)
	}
	st.Cycles += cycles
	return cycles
}

// warmAccess is the functional-warming state update: the same tag,
// LRU, dirty-bit and prefetcher transitions as a detailed access, with
// no cycle charges and no Stats counters. The set-internal LRU stamps
// advance exactly as in detailed mode, so replacement decisions
// downstream of a fast-forward match the ones a cycle-exact run would
// have made. The prefetched-line attribution set is left alone — it
// only feeds the PrefetchHits statistic, which is not measured during
// fast-forward.
//
// Listener events ARE delivered: the misses are architecturally real
// (the warmed tag state evolves exactly as the detailed lane's), and a
// PEBS unit sampling the run must see the full event stream or its
// sample counts — and everything downstream: monitor attribution,
// adaptive interval control — would be biased by the measured fraction.
// Unmonitored runs have a nil listener and skip the calls entirely.
func (h *Hierarchy) warmAccess(addr uint64, write bool) {
	if !h.tlb.probe(addr>>h.pageBits, false) {
		h.tlb.fill(addr>>h.pageBits, false)
		if h.listener != nil {
			h.listener.HardwareEvent(EventDTLBMiss, addr)
		}
	}
	lineAddr := addr >> h.lineBits
	if h.l1.probe(lineAddr, write) {
		return
	}
	h.l1.fill(lineAddr, write)
	if h.listener != nil {
		h.listener.HardwareEvent(EventL1Miss, addr)
	}
	if !h.l2.probe(lineAddr, write) {
		h.l2.fill(lineAddr, write)
		if h.listener != nil {
			h.listener.HardwareEvent(EventL2Miss, addr)
		}
		h.trainPrefetcher(lineAddr)
	}
}

// trainPrefetcher observes a memory-level miss and, on a detected
// stream, prefetches the next line into L2 and L1. The prefetch is
// charged no demand latency (it overlaps with the miss), matching the
// P4's autonomous stream prefetcher.
func (h *Hierarchy) trainPrefetcher(lineAddr uint64) {
	if !h.cfg.PrefetchEnabled {
		return
	}
	h.stamp++
	// Find a stream this miss continues.
	for i := range h.streams {
		s := &h.streams[i]
		if !s.valid {
			continue
		}
		delta := int64(lineAddr) - int64(s.lastLine)
		if delta == s.dir {
			s.lastLine = lineAddr
			s.lru = h.stamp
			if s.conf < 4 {
				s.conf++
			}
			if s.conf >= 2 {
				next := uint64(int64(lineAddr) + s.dir)
				h.prefetchLine(next)
			}
			return
		}
	}
	// Try to pair with a stream one line away in either direction to
	// start a new stream, else allocate.
	for i := range h.streams {
		s := &h.streams[i]
		if !s.valid {
			continue
		}
		delta := int64(lineAddr) - int64(s.lastLine)
		if delta == 1 || delta == -1 {
			s.dir = delta
			s.lastLine = lineAddr
			s.conf = 2
			s.lru = h.stamp
			next := uint64(int64(lineAddr) + s.dir)
			h.prefetchLine(next)
			return
		}
	}
	victim := 0
	for i := range h.streams {
		if !h.streams[i].valid {
			victim = i
			break
		}
		if h.streams[i].lru < h.streams[victim].lru {
			victim = i
		}
	}
	h.streams[victim] = stream{lastLine: lineAddr, dir: 1, conf: 1, valid: true, lru: h.stamp}
}

func (h *Hierarchy) prefetchLine(lineAddr uint64) {
	addr := lineAddr << h.lineBits
	if h.l2.contains(addr) && h.l1.contains(addr) {
		return
	}
	if h.functional {
		// Warming lane: install the lines, skip the statistics and the
		// prefetch-hit attribution set.
		h.l2.lookup(addr, true, false)
		h.l1.lookup(addr, true, false)
		return
	}
	h.stats.Prefetches++
	h.l2.lookup(addr, true, false)
	h.l1.lookup(addr, true, false)
	h.prefetched.Add(lineAddr)
	h.pfMask |= 1 << (lineAddr & 63)
}

// L1Contains reports whether the line holding addr is resident in L1.
// Exposed for tests and for the co-allocation effectiveness analysis.
func (h *Hierarchy) L1Contains(addr uint64) bool { return h.l1.contains(addr) }

// LineOf returns the line-aligned base address for addr.
func (h *Hierarchy) LineOf(addr uint64) uint64 {
	return addr &^ (uint64(h.cfg.LineSize) - 1)
}

// SameLine reports whether two addresses fall in the same cache line —
// the property object co-allocation tries to establish for hot
// parent/child pairs (§5.2).
func (h *Hierarchy) SameLine(a, b uint64) bool { return h.LineOf(a) == h.LineOf(b) }
