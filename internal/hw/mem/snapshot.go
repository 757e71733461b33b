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

// Snapshot serializes all materialized pages in ascending page order.
func (m *Memory) Snapshot() snap.ComponentState {
	keys := make([]uint64, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var w snap.Writer
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.Bytes8(m.pages[k][:])
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
	pages := make(map[uint64]*[PageSize]byte, n)
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
		pages[k] = p
	}
	touched := r.U64()
	if err := r.Close(); err != nil {
		return err
	}
	m.pages = pages
	m.touched = int(touched)
	// The translation memo points into the replaced page set.
	m.memoPage = [pageMemoSize]*[PageSize]byte{}
	return nil
}
