package mem

import (
	"fmt"
	"sort"

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

// Snapshot serializes all materialized pages in ascending page order:
// the directory in index order, then the pages beyond it by sorted key.
func (m *Memory) Snapshot() snap.ComponentState {
	far := make([]uint64, 0, len(m.far))
	for k := range m.far {
		far = append(far, k)
	}
	sort.Slice(far, func(i, j int) bool { return far[i] < far[j] })
	n := len(far)
	for _, p := range m.dir {
		if p != nil {
			n++
		}
	}
	var w snap.Writer
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
	w.U64(uint64(m.touched))
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore replaces the address space contents with the snapshot's
// pages. Pages materialized since boot that are absent from the
// snapshot are dropped, so the footprint matches the origin exactly.
func (m *Memory) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	n := r.Count(16 + PageSize)
	fresh := New()
	for i := 0; i < n; i++ {
		k := r.U64()
		b := r.Bytes8()
		if r.Err() != nil {
			break
		}
		if len(b) != PageSize {
			return fmt.Errorf("mem: %w: page %#x has %d bytes, want %d", snap.ErrDecode, k, len(b), PageSize)
		}
		p := new([PageSize]byte)
		copy(p[:], b)
		if k < dirPages {
			fresh.dir[k] = p
		} else {
			fresh.far[k] = p
		}
	}
	fresh.touched = int(r.U64())
	if err := r.Close(); err != nil {
		return err
	}
	*m = *fresh
	return nil
}
