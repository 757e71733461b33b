package cache

import (
	"fmt"
	"sort"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the memory
// hierarchy. Mutable state is the three tag arrays (including LRU
// stamps and dirty bits), the stream prefetcher's trained streams, the
// window counters and the prefetched-line attribution set. Geometry is
// configuration: Restore requires the hierarchy to have been built from
// the same Config and rejects a tag-array length mismatch.

const (
	snapComponent = "hw/cache"
	snapVersion   = 1
)

// encode writes the version-1 layout, which predates the parallel
// arrays: per way a tag (key >> setBits), a valid flag, the dirty bit
// and the stamp — an empty way is all zeros — then the stamp twice (the
// second word was a per-array access counter that always equalled it)
// and the miss count.
func (sa *setAssoc) encode(w *snap.Writer) {
	w.U64(uint64(len(sa.keys)))
	for i, key := range sa.keys {
		valid := key != emptyKey
		if valid {
			w.U64(key >> sa.setBits)
		} else {
			w.U64(0)
		}
		w.Bool(valid)
		w.Bool(sa.dirty[i])
		w.U64(sa.lru[i])
	}
	w.U64(sa.stamp)
	w.U64(sa.stamp)
	w.U64(sa.misses)
}

// decode is encode's inverse, and rejects what encode cannot produce —
// an empty way with a tag, dirty bit or stamp, a resident way with
// stamp 0 or a tag wider than an address yields, an access counter
// that differs from the stamp — because the arrays have nowhere to keep
// such state: Snapshot after an accepted Restore returns the same bytes.
func (sa *setAssoc) decode(r *snap.Reader, name string) error {
	n := r.U64()
	if r.Err() == nil && n != uint64(len(sa.keys)) {
		return fmt.Errorf("cache: %w: %s has %d lines, snapshot has %d (geometry mismatch)",
			snap.ErrDecode, name, len(sa.keys), n)
	}
	maxTag := emptyKey >> sa.offBits >> sa.setBits
	canonical := true
	for i := range sa.keys {
		tag, valid, dirty, lru := r.U64(), r.Bool(), r.Bool(), r.U64()
		if valid {
			canonical = canonical && tag <= maxTag && lru != 0
			sa.keys[i] = tag<<sa.setBits | uint64(i/sa.assoc)
		} else {
			canonical = canonical && tag == 0 && !dirty && lru == 0
			sa.keys[i] = emptyKey
		}
		sa.lru[i], sa.dirty[i] = lru, dirty
	}
	sa.stamp = r.U64()
	canonical = canonical && r.U64() == sa.stamp
	sa.misses = r.U64()
	if sa.idx != nil {
		sa.idx.clear()
		for i, key := range sa.keys {
			if key != emptyKey {
				sa.idx.put(key, uint64(i))
			}
		}
	}
	if r.Err() == nil && !canonical {
		return fmt.Errorf("cache: %w: %s holds state no encoder writes", snap.ErrDecode, name)
	}
	return r.Err()
}

// Snapshot serializes the hierarchy's hardware and counter state.
func (h *Hierarchy) Snapshot() snap.ComponentState {
	var w snap.Writer
	h.l1.encode(&w)
	h.l2.encode(&w)
	h.tlb.encode(&w)
	w.U64(uint64(len(h.streams)))
	for i := range h.streams {
		s := &h.streams[i]
		w.U64(s.lastLine)
		w.I64(s.dir)
		w.I64(int64(s.conf))
		w.Bool(s.valid)
		w.U64(s.lru)
	}
	w.U64(h.stamp)
	st := h.stats
	w.U64(st.Accesses)
	w.U64(st.Loads)
	w.U64(st.Stores)
	w.U64(st.L1Misses)
	w.U64(st.L2Misses)
	w.U64(st.TLBMisses)
	w.U64(st.Writebacks)
	w.U64(st.Prefetches)
	w.U64(st.PrefetchHits)
	w.U64(st.Cycles)
	keys := h.prefetched.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.U64(k)
	}
	// Opt-in I-cache tail, present exactly when the model is enabled.
	// The fingerprint binding guarantees Restore runs under the same
	// Options and therefore the same gating, so pre-existing snapshots
	// (no I-cache) keep their exact bytes.
	if h.l1i != nil {
		h.l1i.encode(&w)
		ist := h.istats
		w.U64(ist.Fetches)
		w.U64(ist.Misses)
		w.U64(ist.MemFills)
		w.U64(ist.Cycles)
	}
	// Opt-in software-prefetch tail, gated exactly like the I-cache
	// tail: present when EnableSwPrefetch ran, absent (byte-identical
	// encoding) for every pre-existing configuration.
	if h.sw != nil {
		w.U64(st.SwPrefetches)
		w.U64(st.SwPrefetchHits)
		swKeys := h.sw.prefetched.Keys()
		sort.Slice(swKeys, func(i, j int) bool { return swKeys[i] < swKeys[j] })
		w.U64(uint64(len(swKeys)))
		for _, k := range swKeys {
			w.U64(k)
		}
		pcs := make([]uint64, 0, len(h.sw.sites))
		for pc := range h.sw.sites {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		w.U64(uint64(len(pcs)))
		for _, pc := range pcs {
			w.U64(pc)
			w.I64(h.sw.sites[pc])
		}
	}
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the hierarchy's hardware and counter state. The
// listener and observer wiring is untouched.
func (h *Hierarchy) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	// Any restored L1 line may be in a restored attribution set.
	for i := range h.l1Pending {
		h.l1Pending[i] = true
	}
	if err := h.l1.decode(r, "l1"); err != nil {
		return err
	}
	if err := h.l2.decode(r, "l2"); err != nil {
		return err
	}
	if err := h.tlb.decode(r, "tlb"); err != nil {
		return err
	}
	nStreams := r.U64()
	if r.Err() == nil && nStreams != uint64(len(h.streams)) {
		return fmt.Errorf("cache: %w: prefetcher has %d streams, snapshot has %d (geometry mismatch)",
			snap.ErrDecode, len(h.streams), nStreams)
	}
	for i := range h.streams {
		s := &h.streams[i]
		s.lastLine = r.U64()
		s.dir = r.I64()
		s.conf = int(r.I64())
		s.valid = r.Bool()
		s.lru = r.U64()
	}
	h.stamp = r.U64()
	var stats Stats
	stats.Accesses = r.U64()
	stats.Loads = r.U64()
	stats.Stores = r.U64()
	stats.L1Misses = r.U64()
	stats.L2Misses = r.U64()
	stats.TLBMisses = r.U64()
	stats.Writebacks = r.U64()
	stats.Prefetches = r.U64()
	stats.PrefetchHits = r.U64()
	stats.Cycles = r.U64()
	nPref := r.Count(8)
	pref := newPfSet()
	for i := 0; i < nPref; i++ {
		pref.Add(r.U64())
	}
	var istats IStats
	if h.l1i != nil {
		if err := h.l1i.decode(r, "l1i"); err != nil {
			return err
		}
		istats.Fetches = r.U64()
		istats.Misses = r.U64()
		istats.MemFills = r.U64()
		istats.Cycles = r.U64()
	}
	var swPref *pfSet
	var swSites map[uint64]int64
	if h.sw != nil {
		stats.SwPrefetches = r.U64()
		stats.SwPrefetchHits = r.U64()
		swPref = newPfSet()
		nSw := r.Count(8)
		for i := 0; i < nSw; i++ {
			swPref.Add(r.U64())
		}
		nSites := r.Count(16)
		swSites = make(map[uint64]int64, nSites)
		for i := 0; i < nSites; i++ {
			pc := r.U64()
			swSites[pc] = r.I64()
		}
	}
	if err := r.Close(); err != nil {
		return err
	}
	h.stats = stats
	h.istats = istats
	h.prefetched = pref
	if h.sw != nil {
		h.sw.prefetched = swPref
		h.sw.sites = swSites
	}
	return nil
}
