package cache

import (
	"slices"

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
	snapVersion   = 2
)

// walk is one tag array: per way its key, stamp and dirty bit, then the
// array's stamp. Decoding rejects a way the arrays cannot hold (see
// encodable), so Snapshot after an accepted Restore returns the same
// bytes.
func (sa *setAssoc) walk(c *snap.Codec, name string) {
	c.Same(uint64(len(sa.keys)), name+" line count (geometry)")
	bad := -1
	for i := range sa.keys {
		c.U64(&sa.keys[i])
		c.U64(&sa.lru[i])
		c.Bool(&sa.dirty[i])
		if bad < 0 && !sa.encodable(i) {
			bad = i
		}
	}
	c.U64(&sa.stamp)
	c.Check(bad < 0, "%s way %d holds state no encoder writes", name, bad)
}

// encodedLen is the number of bytes walk writes.
func (sa *setAssoc) encodedLen() int { return 8 + 17*len(sa.keys) + 8 }

// encodable reports whether way i holds what access can leave there: an
// empty way has stamp 0 and is clean, a resident way has a stamp and a
// key of its own set that no earlier way of the set holds (access looks
// a key up before it fills, so a set never holds one key twice).
func (sa *setAssoc) encodable(i int) bool {
	key := sa.keys[i]
	if key == emptyKey {
		return sa.lru[i] == 0 && !sa.dirty[i]
	}
	set := i / sa.assoc
	return sa.lru[i] != 0 && key&sa.setMask == uint64(set) &&
		!slices.Contains(sa.keys[set*sa.assoc:i], key)
}

// blank returns an empty array of the same geometry for Restore to
// decode into.
func (sa *setAssoc) blank() *setAssoc {
	return newSetAssoc(len(sa.keys), sa.assoc)
}

// walkLines walks a prefetched-line set as its sorted keys; decoding
// builds a fresh set.
func walkLines(c *snap.Codec, set **pfSet) {
	var keys []uint64
	if c.R == nil {
		keys = (*set).Keys()
		slices.Sort(keys)
	}
	snap.Slice(c, &keys, (*snap.Codec).U64)
	if c.R != nil {
		*set = newPfSet()
		for _, k := range keys {
			(*set).Add(k)
		}
	}
}

// walk is the hierarchy's layout. It decodes into the receiver's
// arrays, so Restore binds it to blank ones.
func (h *Hierarchy) walk(c *snap.Codec) {
	// The tag arrays are nearly all of the bytes.
	c.Grow(h.l1.encodedLen() + h.l2.encodedLen() + h.tlb.encodedLen())
	h.l1.walk(c, "l1")
	h.l2.walk(c, "l2")
	h.tlb.walk(c, "tlb")
	c.Same(uint64(len(h.streams)), "prefetcher stream count (geometry)")
	for i := range h.streams {
		s := &h.streams[i]
		c.U64(&s.lastLine)
		c.I64(&s.dir)
		snap.Int(c, &s.conf)
		c.Bool(&s.valid)
		c.U64(&s.lru)
	}
	c.U64(&h.stamp)
	st := &h.stats
	c.U64(&st.Accesses)
	c.U64(&st.Loads)
	c.U64(&st.Stores)
	c.U64(&st.L1Misses)
	c.U64(&st.L2Misses)
	c.U64(&st.TLBMisses)
	c.U64(&st.Writebacks)
	c.U64(&st.Prefetches)
	c.U64(&st.PrefetchHits)
	c.U64(&st.Cycles)
	walkLines(c, &h.prefetched)
	// Opt-in I-cache tail, present exactly when the model is enabled.
	// The fingerprint binding guarantees Restore runs under the same
	// Options and therefore the same gating, so pre-existing snapshots
	// (no I-cache) keep their exact bytes.
	if h.l1i != nil {
		h.l1i.walk(c, "l1i")
		c.U64(&h.istats.Fetches)
		c.U64(&h.istats.Misses)
		c.U64(&h.istats.MemFills)
		c.U64(&h.istats.Cycles)
	}
	// Opt-in software-prefetch tail, gated exactly like the I-cache
	// tail: present when EnableSwPrefetch ran, absent (byte-identical
	// encoding) for every pre-existing configuration.
	if h.sw != nil {
		c.U64(&st.SwPrefetches)
		c.U64(&st.SwPrefetchHits)
		walkLines(c, &h.sw.prefetched)
		snap.Map(c, &h.sw.sites, snap.Pair((*snap.Codec).U64, (*snap.Codec).I64))
	}
}

// Snapshot serializes the hierarchy's hardware and counter state.
func (h *Hierarchy) Snapshot() snap.ComponentState {
	h.settle()
	return snap.Encode(snapComponent, snapVersion, h.walk)
}

// Restore overwrites the hierarchy's hardware and counter state. The
// listener and observer wiring is untouched.
func (h *Hierarchy) Restore(st snap.ComponentState) error {
	next := *h
	next.l1, next.l2, next.tlb = *h.l1.blank(), *h.l2.blank(), *h.tlb.blank()
	next.streams = slices.Clone(h.streams)
	if h.l1i != nil {
		next.l1i = h.l1i.blank()
	}
	if h.sw != nil {
		next.sw = snap.Scratch(h.sw)
	}
	if err := snap.Decode(st, snapComponent, snapVersion, next.walk); err != nil {
		return err
	}
	// Any restored L1 line may be in a restored attribution set. The
	// resident-line table points into the abandoned arrays, the lane's
	// counts and the DTLB's page counts belong to the abandoned state,
	// and the site flags to the abandoned site table.
	for i := range next.l1Pending {
		next.l1Pending[i] = true
	}
	next.clearResident()
	next.countTLBPages()
	next.laneHits, next.laneStores = 0, 0
	next.flagSites()
	*h = next
	return nil
}
