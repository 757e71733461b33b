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
	"slices"
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

// Config describes what varies between the hierarchies the repo
// builds: the line size, the L1D geometry and the page size, which the
// software-prefetch revert scenario shrinks, and the stream prefetcher,
// which an ablation turns off. The rest of the machine is the P4's
// alone (the constants below).
type Config struct {
	LineSize int // bytes per cache line (shared by L1 and L2)

	L1Size  int // total L1D bytes
	L1Assoc int // L1D associativity

	PageSize int // virtual page size covered by one TLB entry

	// PrefetchEnabled turns on the stream prefetcher.
	PrefetchEnabled bool
}

// The P4's unified L2, DTLB, cycle costs and stream tracker. An access
// always pays l1HitCycles; misses add the corresponding penalty on top.
const (
	l2Size          = 1024 * 1024 // total L2 bytes
	l2Assoc         = 8           // L2 associativity
	tlbEntries      = 64          // DTLB entries (fully associative)
	l1HitCycles     = 2           // cost of an L1 hit
	l2HitCycles     = 18          // additional cost when L1 misses but L2 hits
	memCycles       = 200         // additional cost when L2 misses
	tlbMissCycles   = 30          // additional cost of a DTLB miss (page walk)
	prefetchStreams = 8           // concurrent streams the prefetcher tracks
)

// DefaultP4 returns the configuration matching the paper's experimental
// platform (§6.1): 3 GHz Pentium 4, 16 KB L1D, 1 MB L2, 128-byte lines,
// hardware prefetching. Latencies follow published P4 figures scaled to
// round numbers.
func DefaultP4() Config {
	return Config{
		LineSize:        128,
		L1Size:          16 * 1024,
		L1Assoc:         4,
		PageSize:        4096,
		PrefetchEnabled: true,
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
		{"PageSize", c.PageSize},
	} {
		if err := checkPow2(p.name, p.v); err != nil {
			return err
		}
	}
	if c.LineSize < 2 || c.PageSize < 2 {
		// The tag arrays mark an empty way with the all-ones key, which
		// only an unshifted address could equal.
		return fmt.Errorf("cache: LineSize and PageSize must be at least 2, got %d and %d", c.LineSize, c.PageSize)
	}
	if c.PageSize < c.LineSize {
		// A line would span pages and so have no single DTLB way.
		return fmt.Errorf("cache: PageSize %d is smaller than LineSize %d", c.PageSize, c.LineSize)
	}
	if c.L1Size < c.LineSize*c.L1Assoc {
		return fmt.Errorf("cache: L1 too small for %d-way associativity", c.L1Assoc)
	}
	if l2Size < c.LineSize*l2Assoc {
		return fmt.Errorf("cache: LineSize %d leaves the %d-way L2 no set", c.LineSize, l2Assoc)
	}
	return nil
}

// emptyKey marks a way that holds no line. A key is an address shifted
// right by at least one bit (Validate rejects one-byte lines and pages),
// so no resident line ever carries it and a hit test is one compare.
const emptyKey = ^uint64(0)

// setAssoc is a generic set-associative tag array with LRU replacement,
// stored as parallel row-major arrays (set s occupies ways
// [s*assoc, (s+1)*assoc) of each): the hit test reads one contiguous
// row of keys, the victim choice one contiguous row of stamps, and
// neither drags the other's bytes through the host's cache.
type setAssoc struct {
	keys    []uint64 // per way: address >> line or page bits, emptyKey when empty
	lru     []uint64 // last-use stamp per way: >= 1 when resident, 0 when empty
	dirty   []bool   // per way; an empty way is never dirty
	assoc   int
	setMask uint64 // selects the set from a key
	stamp   uint64
	evicted uint64 // the key the last fill replaced, emptyKey for an empty way
}

func newSetAssoc(totalLines, assoc int) *setAssoc {
	nsets := totalLines / assoc
	sa := &setAssoc{
		keys:    make([]uint64, nsets*assoc),
		lru:     make([]uint64, nsets*assoc),
		dirty:   make([]bool, nsets*assoc),
		assoc:   assoc,
		setMask: uint64(nsets - 1),
	}
	sa.invalidateAll()
	return sa
}

// find returns the way holding key, or -1. It changes nothing.
func (sa *setAssoc) find(key uint64) int {
	base := int(key&sa.setMask) * sa.assoc
	for i, k := range sa.keys[base : base+sa.assoc] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// access touches the line identified by key: a hit refreshes its LRU
// stamp and dirty bit, a miss fills it over the least recently used way
// — empty ways carry stamp 0, below every resident stamp, so the first
// way holding the least stamp is the first empty way when there is one.
// It returns the way now holding key, whether that was a hit, and
// whether the fill evicted a dirty line. Every access advances the
// stamp exactly once.
func (sa *setAssoc) access(key uint64, markDirty bool) (way int, hit, writeback bool) {
	sa.stamp++
	if way = sa.find(key); way >= 0 {
		sa.lru[way] = sa.stamp
		if markDirty {
			sa.dirty[way] = true
		}
		return way, true, false
	}
	way, writeback = sa.fill(key, markDirty)
	return way, false, writeback
}

// fill is the miss half of access, for a key the array does not hold:
// it puts key in the victim way at the current stamp, records the key
// it replaced in evicted and reports whether that line was dirty. The
// caller has advanced the stamp.
//
// The victim is the first way holding the row's least stamp. The pass
// that finds the least stamp keeps four minima, one per way modulo
// four, so it takes no branch on the stamps' order and its dependency
// chain is a quarter of the row: over the DTLB's 64 ways, in no
// particular order, a running minimum's updates mispredict.
func (sa *setAssoc) fill(key uint64, markDirty bool) (way int, writeback bool) {
	base := int(key&sa.setMask) * sa.assoc
	row := sa.lru[base : base+sa.assoc]
	m0, m1, m2, m3 := row[0], row[0], row[0], row[0]
	i := 0
	for ; i+4 <= len(row); i += 4 {
		m0, m1, m2, m3 = min(m0, row[i]), min(m1, row[i+1]), min(m2, row[i+2]), min(m3, row[i+3])
	}
	for ; i < len(row); i++ {
		m0 = min(m0, row[i])
	}
	way = base + slices.Index(row, min(m0, m1, m2, m3))
	writeback = sa.dirty[way]
	sa.evicted = sa.keys[way]
	sa.keys[way], sa.lru[way], sa.dirty[way] = key, sa.stamp, markDirty
	return way, writeback
}

// invalidateAll empties every way (used when a run is reset).
func (sa *setAssoc) invalidateAll() {
	for i := range sa.keys {
		sa.keys[i], sa.lru[i], sa.dirty[i] = emptyKey, 0, false
	}
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
// instruction performing the current demand access (the fast loop
// hands its PC to Step before any access that needs Access, and Step
// and the timed accessors call out with it in place) to decide whether
// an injected prefetch site is executing, and the privilege mode to
// ignore VM-service accesses made with a stale user PC.
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

	// prefetched mirrors Hierarchy.prefetched for lines installed by
	// software prefetches awaiting their first demand touch.
	prefetched *pfSet
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
	// The data-side arrays are held by value, so HitAt reads their
	// stamps, and every access their rows, without loading a pointer.
	l1  setAssoc
	l2  setAssoc
	tlb setAssoc
	// l1i, when non-nil, is the opt-in instruction cache
	// (EnableICache): probed by IFetch on code-line transitions,
	// backed by the unified L2. Disabled (nil) for every
	// pre-framework configuration, so golden timing is untouched.
	l1i    *setAssoc
	istats IStats
	// sw, when non-nil, is the opt-in software-prefetch model
	// (EnableSwPrefetch). Nil for every pre-framework configuration, so
	// the disabled hot path costs one pointer test and golden timing is
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

	// l1Pending holds one flag per L1 way: set means the line in that
	// way may be in prefetched or sw.prefetched, clear means it is in
	// neither, so a hit on a clear way skips both set lookups exactly.
	// The flag is set wherever a line enters either set, on prefetch
	// fills and on Restore; a warming-lane fill sets it when either set
	// holds the line, and the detailed demand access that has just run
	// both exact lookups clears it. It errs towards set —
	// ResetStats and Flush empty the sets and leave it alone — which
	// costs one slow-path visit per way. Host-side only, never
	// serialized.
	l1Pending []bool

	// tlbPred is the DTLB way predictor: direct-mapped by a hash of the
	// page (tlbPredSlot), each slot names the way its page was last found
	// in. The hit path compares that one way's key with the page; a stale
	// slot just fails the compare and falls back to the exact lookup, so
	// nothing ever invalidates it — not eviction, Flush or Restore.
	// Host-side only, never serialized.
	tlbPred [1 << tlbPredBits]uint32
	// tlbPages counts the DTLB's resident pages by a hash of the page
	// (tlbPagesSlot): each slot holds exactly how many of the keys in
	// the tag array hash to it. A page whose slot reads 0 is certainly
	// not resident, so its predictor miss fills without scanning the
	// ways. A fill adds its page, the eviction it makes takes the old
	// page away, Flush zeroes the table and Restore recounts it from the
	// restored keys. A slot never exceeds tlbEntries. Host-side only,
	// never serialized.
	tlbPages [1 << tlbPagesBits]uint32

	// resident is the resident-line table behind HitAt, direct-mapped by
	// the line's low bits with its high bits folded in (residentSlot). A
	// slot names a line that is L1-resident in a way whose pending flag
	// is clear, on a page the DTLB holds, and points at the three words
	// an L1 hit on it writes.
	// It is a memo kept exact by dropping, never by checking itself: a
	// slot goes when a demand fill or install evicts its line, when
	// install marks its way pending, and when its page leaves the DTLB
	// (tlbAccess), in either lane; the whole table goes on Flush and
	// Restore. remember, at the end of a demand access in either lane,
	// is the one place that tables a line. Host-side only, never
	// serialized.
	resident [residentSlots]residentLine
	// laneHits and laneStores count the lane's accesses since the last
	// settle. The lane stamps each way with its array's stamp plus
	// laneHits, so the arrays' stamps and the counters lag until settle
	// adds the counts in; everything that reads either settles first,
	// and so does every switch of lane.
	laneHits, laneStores uint64
	// swSite flags, by swSiteSlot, the instruction PCs that may be
	// installed software-prefetch sites: every installed site sets its
	// slot, and a slot may be set for a PC that is no site. HitAt
	// declines at a flagged PC, whose hit may issue a prefetch. All
	// clear without the model. Host-side only, rebuilt from the site
	// table on Restore.
	swSite [swSiteSlots]bool

	// functional, when set, switches Access to the fast-forward lane of
	// sampled simulation (DESIGN.md §11): every access charges the flat
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
		l1:         *newSetAssoc(cfg.L1Size/cfg.LineSize, cfg.L1Assoc),
		l1Pending:  make([]bool, cfg.L1Size/cfg.LineSize),
		l2:         *newSetAssoc(l2Size/cfg.LineSize, l2Assoc),
		tlb:        *newSetAssoc(tlbEntries, tlbEntries),
		lineBits:   lineBits,
		pageBits:   pageBits,
		prefetched: newPfSet(),
	}
	if cfg.PrefetchEnabled {
		h.streams = make([]stream, prefetchStreams)
	}
	h.clearResident()
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
	o.RegisterSampled("cache.accesses", func() uint64 { return h.Stats().Accesses })
	o.RegisterSampled("cache.loads", func() uint64 { return h.Stats().Loads })
	o.RegisterSampled("cache.stores", func() uint64 { return h.Stats().Stores })
	o.RegisterSampled("cache.l1_misses", func() uint64 { return h.Stats().L1Misses })
	o.RegisterSampled("cache.l2_misses", func() uint64 { return h.Stats().L2Misses })
	o.RegisterSampled("cache.tlb_misses", func() uint64 { return h.Stats().TLBMisses })
	o.RegisterSampled("cache.writebacks", func() uint64 { return h.Stats().Writebacks })
	o.RegisterSampled("cache.prefetches", func() uint64 { return h.Stats().Prefetches })
	o.RegisterSampled("cache.prefetch_hits", func() uint64 { return h.Stats().PrefetchHits })
	o.RegisterSampled("cache.cycles", func() uint64 { return h.Stats().Cycles })
	// The software-prefetch rows register only when the model is on:
	// the golden corpus freezes the disabled configurations' counter
	// set, and EnableSwPrefetch runs before the observer attaches.
	if h.sw != nil {
		o.RegisterSampled("cache.sw_prefetches", func() uint64 { return h.Stats().SwPrefetches })
		o.RegisterSampled("cache.sw_prefetch_hits", func() uint64 { return h.Stats().SwPrefetchHits })
	}
}

// Config returns the active configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats {
	h.settle()
	return h.stats
}

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
	h.l1i = newSetAssoc(size/h.cfg.LineSize, assoc)
	h.istats = IStats{}
}

// IStats returns the instruction-cache counters.
func (h *Hierarchy) IStats() IStats { return h.istats }

// IFetch simulates the instruction fetch of the line holding addr and
// returns the stall cycles. The CPU calls it once per code-line
// transition: an L1I hit overlaps with execution and costs nothing; a
// miss is filled from the unified L2 (l2HitCycles) or memory
// (+memCycles) and raises EventL1IMiss. The fetch is a read probe of
// the shared L2, so heavy I-misses evict data lines — the contention
// hot/cold code layout exists to avoid.
func (h *Hierarchy) IFetch(addr uint64) uint64 {
	st := &h.istats
	st.Fetches++
	lineAddr := addr >> h.lineBits
	if _, hit, _ := h.l1i.access(lineAddr, false); hit {
		return 0
	}
	st.Misses++
	cycles := uint64(l2HitCycles)
	if h.listener != nil {
		h.listener.HardwareEvent(EventL1IMiss, addr)
	}
	if _, hit, _ := h.l2.access(lineAddr, false); !hit {
		st.MemFills++
		cycles += memCycles
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
	h.flagSites()
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
	h.flagSites()
}

// swSiteSlots is the number of swSite flags; a power of two.
const swSiteSlots = 4096

// swSiteSlot maps an instruction PC to its swSite flag. The CPU's
// instruction slots are 4 bytes, so consecutive instructions take
// consecutive flags. HitAt spells it out: the call would cost the lane
// four units of its inlining budget.
func swSiteSlot(pc uint64) uint64 { return pc >> 2 & (swSiteSlots - 1) }

// flagSites rebuilds swSite from the installed site table.
func (h *Hierarchy) flagSites() {
	clear(h.swSite[:])
	if h.sw == nil {
		return
	}
	for pc := range h.sw.sites {
		h.swSite[swSiteSlot(pc)] = true
	}
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
	h.settle()
	lineAddr := addr >> h.lineBits
	if h.l1.find(lineAddr) >= 0 {
		return 0
	}
	h.install(lineAddr)
	if h.functional {
		// Warming lane: the line is installed, statistics and
		// attribution are skipped, exactly like the hardware prefetchLine.
		return 0
	}
	h.stats.SwPrefetches++
	h.sw.prefetched.Add(lineAddr)
	return h.sw.issueCost
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
	h.settle()
	if h.obs != nil {
		st := &h.stats
		h.obs.Emit(obs.EvCacheWindow, h.obsNow(), st.Accesses, st.L1Misses, st.Cycles)
	}
	h.stats = Stats{}
	h.istats = IStats{}
	if h.prefetched.Len() != 0 {
		h.prefetched.Clear()
	}
	if h.sw != nil && h.sw.prefetched.Len() != 0 {
		h.sw.prefetched.Clear()
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
	clear(h.tlbPages[:])
	h.prefetched.Clear()
	if h.sw != nil {
		// The attribution set is hardware-adjacent state and clears with
		// the lines it tracks; the site table is program text (injected
		// prefetch instructions) and survives a hardware flush.
		h.sw.prefetched.Clear()
	}
	h.clearResident()
}

// SetFunctional switches the hierarchy into functional fast-forward
// mode: every Access returns flatCost and updates no stats, while tag
// state keeps warming and listener events keep firing (see the
// functional field). SetDetailed resumes cycle-exact timing from that
// warmed state. Both settle first: the lane's counts belong to the lane
// they were made in.
func (h *Hierarchy) SetFunctional(flatCost uint64) {
	h.settle()
	h.functional = true
	h.flatCost = flatCost
}

// SetDetailed returns the hierarchy to cycle-exact modeling.
func (h *Hierarchy) SetDetailed() {
	h.settle()
	h.functional = false
}

// HitCycles returns what an access the lane serves costs: l1HitCycles
// in the detailed lane, the flat cost in the warming lane.
func (h *Hierarchy) HitCycles() uint64 {
	if h.functional {
		return h.flatCost
	}
	return l1HitCycles
}

// Functional reports whether the hierarchy is in fast-forward mode.
func (h *Hierarchy) Functional() bool { return h.functional }

// tlbPredBits is the log2 of the number of way-predictor slots.
const tlbPredBits = 8

// tlbPredSlot hashes rather than masks: the simulated regions (code,
// stacks, nursery, mature space) start on megabyte boundaries, so their
// hottest pages agree in the low page bits.
func tlbPredSlot(page uint64) uint64 { return pfHash(page) >> (64 - tlbPredBits) }

// tlbPagesBits is the log2 of the number of tlbPages slots: sixteen per
// entry of the P4's 64-entry DTLB, so a fill finds its slot empty about
// 94 % of the time.
const tlbPagesBits = 10

// tlbPagesSlot hashes like tlbPredSlot, for the same reason.
func tlbPagesSlot(page uint64) uint64 { return pfHash(page) >> (64 - tlbPagesBits) }

// countTLBPages rebuilds tlbPages from the DTLB's keys.
func (h *Hierarchy) countTLBPages() {
	clear(h.tlbPages[:])
	for _, page := range h.tlb.keys {
		if page != emptyKey {
			h.tlbPages[tlbPagesSlot(page)]++
		}
	}
}

// residentSlots is the number of resident-line table slots, twice the
// P4 L1's 128 lines; a power of two.
const residentSlots = 256

// residentSlot folds the line's bits from 16 up onto its low bits
// before it masks. The mask alone keeps contiguous lines apart, but the
// simulated regions start on power-of-two boundaries (immortal space,
// nursery, mature space and large objects at 0x400_0000, 0x1000_0000,
// 0x2000_0000 and 0x5000_0000), so lines at one offset into each share
// the low bits, and pairs of L1-resident lines kept evicting each other
// from one slot. The fold sets those regions' slots apart and keeps 256
// contiguous lines in 256 slots unless they cross a 64 K-line boundary.
// A multiplicative hash spreads no better and costs the lane six more
// units of its inlining budget. HitAt spells the fold out: the call
// would cost it four units.
func residentSlot(line uint64) uint64 { return (line ^ line>>16) & (residentSlots - 1) }

// residentLine is one slot of the resident-line table: the line, or
// emptyKey, and the L1 stamp, L1 dirty bit and DTLB stamp of the ways
// holding the line and its page.
type residentLine struct {
	line  uint64
	l1    *uint64
	dirty *bool
	tlb   *uint64
}

// HitAt is the resident-line lane, the inlinable front of Access, for
// an access made while the instruction at pc executes: when the line
// holding addr is in the resident-line table, it performs the L1 hit
// Access would — both stamps and the dirty bit written, the access
// counted — and reports true; the access costs HitCycles, the current
// lane's hit cost, and raises no event. Otherwise, and at a pc that may
// be an installed software-prefetch site (a hit there may issue a
// prefetch), it changes nothing and reports false, and the caller calls
// Access. Its counts reach Stats and the arrays' stamps at the next
// settle.
func (h *Hierarchy) HitAt(pc, addr uint64, write bool) bool {
	line := addr >> h.lineBits
	e := &h.resident[(line^line>>16)&(residentSlots-1)]
	if h.swSite[pc>>2&(swSiteSlots-1)] || e.line != line {
		return false
	}
	h.laneHits++
	*e.l1 = h.l1.stamp + h.laneHits
	*e.tlb = h.tlb.stamp + h.laneHits
	if write {
		*e.dirty = true
		h.laneStores++
	}
	return true
}

// settle adds the accesses the lane has served since the last settle
// to the L1 and DTLB stamps and, in the detailed lane, to the
// counters: after it the hierarchy holds exactly what Access would have
// left.
func (h *Hierarchy) settle() {
	n := h.laneHits
	if n == 0 {
		return
	}
	h.l1.stamp += n
	h.tlb.stamp += n
	if !h.functional {
		st := &h.stats
		st.Accesses += n
		st.Stores += h.laneStores
		st.Loads += n - h.laneStores
		st.Cycles += n * l1HitCycles
	}
	h.laneHits, h.laneStores = 0, 0
}

// remember tables the line of addr, which the demand access that is
// returning left in L1 way. It checks first that the line is still
// there, its way is not pending and its page is in the predicted DTLB
// way: a listener may have run a nested access since, and a hardware
// or software prefetch may have filled over the line.
func (h *Hierarchy) remember(addr uint64, way int) {
	page, lineAddr := addr>>h.pageBits, addr>>h.lineBits
	tw := h.tlbPred[tlbPredSlot(page)]
	if h.l1.keys[way] != lineAddr || h.l1Pending[way] || h.tlb.keys[tw] != page {
		return
	}
	h.resident[residentSlot(lineAddr)] = residentLine{lineAddr, &h.l1.lru[way], &h.l1.dirty[way], &h.tlb.lru[tw]}
}

// drop removes line from the resident-line table.
func (h *Hierarchy) drop(line uint64) {
	if e := &h.resident[residentSlot(line)]; e.line == line {
		*e = residentLine{line: emptyKey}
	}
}

// dropPage removes every line of page from the resident-line table by
// scanning the one aligned block of slots its lines can take: they
// differ only in their low bits, to which residentSlot's fold adds the
// same bits, so the block has as many slots as the page has lines, or
// is the whole table when the page has more lines than that.
func (h *Hierarchy) dropPage(page uint64) {
	shift := h.pageBits - h.lineBits
	n := min(uint64(1)<<shift, residentSlots)
	first := residentSlot(page<<shift) &^ (n - 1)
	block := h.resident[first : first+n]
	for i := range block {
		if block[i].line>>shift == page {
			block[i] = residentLine{line: emptyKey}
		}
	}
}

// clearResident empties the resident-line table.
func (h *Hierarchy) clearResident() {
	for i := range h.resident {
		h.resident[i] = residentLine{line: emptyKey}
	}
}

// tlbAccess touches addr's page in the DTLB, filling it on a miss, and
// reports whether it hit. The predictor is consulted first and left
// naming the page's way; when it misses, the page count decides whether
// the ways need scanning before the fill.
func (h *Hierarchy) tlbAccess(addr uint64) bool {
	tlb, page := &h.tlb, addr>>h.pageBits
	slot := &h.tlbPred[tlbPredSlot(page)]
	tlb.stamp++
	if tlb.keys[*slot] == page {
		tlb.lru[*slot] = tlb.stamp
		return true
	}
	count := &h.tlbPages[tlbPagesSlot(page)]
	if *count != 0 {
		if way := tlb.find(page); way >= 0 {
			tlb.lru[way] = tlb.stamp
			*slot = uint32(way)
			return true
		}
	}
	way, _ := tlb.fill(page, false)
	*slot = uint32(way)
	*count++
	if old := tlb.evicted; old != emptyKey {
		h.tlbPages[tlbPagesSlot(old)]--
		h.dropPage(old)
	}
	return false
}

// Access simulates one demand access of the given size at addr and
// returns the cycle cost. write distinguishes stores from loads.
// Accesses are assumed not to cross a cache line (the CPU only issues
// naturally aligned accesses of at most 8 bytes). It is the one slow
// path behind the lane (HitAt): every access the lane declines lands
// here, and it settles the lane's counts first. In the warming lane it
// is warmAccess at the flat cost (TestAccessFingerprint and
// TestOracleLockStep pin the exact behavior).
func (h *Hierarchy) Access(addr uint64, size int, write bool) uint64 {
	h.settle()
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
	cycles := uint64(l1HitCycles)

	if !h.tlbAccess(addr) {
		st.TLBMisses++
		cycles += tlbMissCycles
		if h.listener != nil {
			h.listener.HardwareEvent(EventDTLBMiss, addr)
		}
	}

	lineAddr := addr >> h.lineBits
	way, hit, writeback := h.l1.access(lineAddr, write)

	// First demand touch of a prefetched line counts as a prefetch
	// hit, whether it is found in L1 (usual case) or deeper. Only a line
	// that missed L1 or sits in a pending way can be in either set; the
	// way is settled once both have been consulted.
	if !hit || h.l1Pending[way] {
		if h.prefetched.Contains(lineAddr) {
			st.PrefetchHits++
			h.prefetched.Delete(lineAddr)
		}
		if h.sw != nil && h.sw.prefetched.Contains(lineAddr) {
			st.SwPrefetchHits++
			h.sw.prefetched.Delete(lineAddr)
		}
		h.l1Pending[way] = false
	}

	if !hit {
		h.drop(h.l1.evicted)
		if writeback {
			st.Writebacks++
		}
		st.L1Misses++
		cycles += l2HitCycles
		if h.listener != nil {
			h.listener.HardwareEvent(EventL1Miss, addr)
		}
		if _, hit, writeback := h.l2.access(lineAddr, write); !hit {
			st.L2Misses++
			cycles += memCycles
			if h.listener != nil {
				h.listener.HardwareEvent(EventL2Miss, addr)
			}
			if writeback {
				st.Writebacks++
			}
			h.trainPrefetcher(lineAddr)
		}
	}

	if h.sw != nil {
		cycles += h.swSiteIssue(addr)
	}
	h.remember(addr, way)
	st.Cycles += cycles
	return cycles
}

// warmAccess is the functional-warming state update: the same tag,
// LRU, dirty-bit and prefetcher transitions as a detailed access, with
// no cycle charges and no Stats counters. The set-internal LRU stamps
// advance exactly as in detailed mode, so replacement decisions
// downstream of a fast-forward match the ones a cycle-exact run would
// have made. The prefetched-line attribution sets are left alone — they
// only feed the PrefetchHits statistics, which are not measured during
// fast-forward — so a line filled here may still be in one from an
// earlier detailed stretch, and its way is marked pending when it is.
// Like a detailed access it tables its line for the lane when it can.
//
// Listener events ARE delivered: the misses are architecturally real
// (the warmed tag state evolves exactly as the detailed lane's), and a
// PEBS unit sampling the run must see the full event stream or its
// sample counts — and everything downstream: monitor attribution,
// adaptive interval control — would be biased by the measured fraction.
// Unmonitored runs have a nil listener and skip the calls entirely.
func (h *Hierarchy) warmAccess(addr uint64, write bool) {
	if !h.tlbAccess(addr) && h.listener != nil {
		h.listener.HardwareEvent(EventDTLBMiss, addr)
	}
	lineAddr := addr >> h.lineBits
	way, hit, _ := h.l1.access(lineAddr, write)
	if hit {
		h.remember(addr, way)
		return
	}
	h.drop(h.l1.evicted)
	h.l1Pending[way] = h.prefetched.Contains(lineAddr) || h.sw != nil && h.sw.prefetched.Contains(lineAddr)
	if h.listener != nil {
		h.listener.HardwareEvent(EventL1Miss, addr)
	}
	if _, hit, _ := h.l2.access(lineAddr, write); !hit {
		if h.listener != nil {
			h.listener.HardwareEvent(EventL2Miss, addr)
		}
		h.trainPrefetcher(lineAddr)
	}
	h.remember(addr, way)
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
	// A stream that runs off either end of the address space wraps, as
	// the address of its next line would; the attribution set is keyed
	// by what the stream asked for.
	key := lineAddr << h.lineBits >> h.lineBits
	if h.l2.find(key) >= 0 && h.l1.find(key) >= 0 {
		return
	}
	h.install(key)
	if h.functional {
		// Warming lane: the lines are installed, the statistics and the
		// prefetch-hit attribution set are skipped.
		return
	}
	h.stats.Prefetches++
	h.prefetched.Add(lineAddr)
}

// install brings a prefetched line into L2 and L1 and marks its L1 way
// pending — also when the line was already L1-resident, since the
// caller is about to add it to an attribution set. The resident-line
// table loses the line when it was resident, since its way is pending
// now, and otherwise the line the fill evicted.
func (h *Hierarchy) install(lineAddr uint64) {
	h.l2.access(lineAddr, false)
	way, hit, _ := h.l1.access(lineAddr, false)
	h.l1Pending[way] = true
	if hit {
		h.drop(lineAddr)
	} else {
		h.drop(h.l1.evicted)
	}
}

// L1Contains reports whether the line holding addr is resident in L1.
// Exposed for tests and for the co-allocation effectiveness analysis.
func (h *Hierarchy) L1Contains(addr uint64) bool { return h.l1.find(addr>>h.lineBits) >= 0 }

// LineOf returns the line-aligned base address for addr.
func (h *Hierarchy) LineOf(addr uint64) uint64 {
	return addr &^ (uint64(h.cfg.LineSize) - 1)
}

// SameLine reports whether two addresses fall in the same cache line —
// the property object co-allocation tries to establish for hot
// parent/child pairs (§5.2).
func (h *Hierarchy) SameLine(a, b uint64) bool { return h.LineOf(a) == h.LineOf(b) }
