package mem

import (
	"slices"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the sparse address
// space. The encoding is the sorted list of materialized pages with
// their raw contents; region registration (Map) is boot-time layout,
// not mutable state, and is rebuilt by constructing a fresh system.

const (
	snapComponent = "hw/mem"
	snapVersion   = 1
)

// walk is the page list ↔ page directory + far map conversion, spelled
// out in both directions: the wire form is every materialized page in
// ascending page order — the directory in index order, then the pages
// beyond it by sorted key — and only the touched count is a flat field.
// It decodes into the receiver, which Restore makes a fresh Memory.
func (m *Memory) walk(c *snap.Codec) {
	if w := c.W; w != nil {
		far := make([]uint64, 0, len(m.far))
		for k := range m.far {
			far = append(far, k)
		}
		slices.Sort(far)
		n := len(far)
		for _, p := range m.dir {
			if p != nil {
				n++
			}
		}
		w.U64(uint64(n))
		for k, p := range m.dir {
			if p != nil {
				w.U64(uint64(k))
				w.Bytes8(p[:])
			}
		}
		for _, k := range far {
			w.U64(k)
			w.Bytes8(m.far[k][:])
		}
	} else {
		r := c.R
		for n := r.Count(16 + PageSize); n > 0; n-- {
			k := r.U64()
			b := r.Bytes8()
			if !c.Check(len(b) == PageSize, "page %#x has %d bytes, want %d", k, len(b), PageSize) {
				break
			}
			p := new([PageSize]byte)
			copy(p[:], b)
			if k < dirPages {
				m.dir[k] = p
			} else {
				m.far[k] = p
			}
		}
	}
	snap.Int(c, &m.touched)
}

// Snapshot serializes all materialized pages.
func (m *Memory) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, m.walk)
}

// Restore replaces the address space contents with the snapshot's
// pages. Pages materialized since boot that are absent from the
// snapshot are dropped, so the footprint matches the origin exactly.
func (m *Memory) Restore(st snap.ComponentState) error {
	fresh := New()
	if err := snap.Decode(st, snapComponent, snapVersion, fresh.walk); err != nil {
		return err
	}
	*m = *fresh
	return nil
}
