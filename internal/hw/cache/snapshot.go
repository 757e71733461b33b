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
	snapVersion   = 1
)

// walk is one tag array in the version-1 layout, which predates the
// parallel arrays: per way a tag (key >> setBits), a valid flag, the
// dirty bit and the stamp — an empty way is all zeros — then the stamp
// twice (the second word was a per-array access counter that always
// equalled it) and the miss count. That is a conversion between a wire
// form and a different memory form, so both directions are spelled out.
// Decoding rejects what the encoder cannot produce — an empty way with a
// tag, dirty bit or stamp, a resident way with stamp 0 or a tag wider
// than an address yields, an access counter that differs from the stamp
// — because the arrays have nowhere to keep such state: Snapshot after
// an accepted Restore returns the same bytes.
func (sa *setAssoc) walk(c *snap.Codec, name string) {
	c.Same(uint64(len(sa.keys)), name+" line count (geometry)")
	if w := c.W; w != nil {
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
		return
	}
	r := c.R
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
	c.Check(canonical, "%s holds state no encoder writes", name)
	if sa.idx != nil {
		sa.idx.clear()
		for i, key := range sa.keys {
			if key != emptyKey {
				sa.idx.put(key, uint64(i))
			}
		}
	}
}

// blank returns an empty array of the same geometry for Restore to
// decode into.
func (sa *setAssoc) blank() *setAssoc {
	return newSetAssoc(len(sa.keys), sa.assoc, sa.offBits)
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
	return snap.Encode(snapComponent, snapVersion, h.walk)
}

// Restore overwrites the hierarchy's hardware and counter state. The
// listener and observer wiring is untouched.
func (h *Hierarchy) Restore(st snap.ComponentState) error {
	next := *h
	next.l1, next.l2, next.tlb = h.l1.blank(), h.l2.blank(), h.tlb.blank()
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
	// Any restored L1 line may be in a restored attribution set.
	for i := range next.l1Pending {
		next.l1Pending[i] = true
	}
	*h = next
	return nil
}
