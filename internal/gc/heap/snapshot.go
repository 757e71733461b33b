package heap

import (
	"fmt"
	"sort"

	"hpmvm/internal/snap"
)

// Snapshot encoding helpers for the heap spaces. The spaces are not
// standalone components — the collectors (and the VM, for the immortal
// space) embed them — so they expose Encode/Decode primitives their
// owners compose into a ComponentState rather than implementing
// snap.Checkpointable themselves.

// Encode appends the space's mutable state (soft limit, cursor,
// allocation count) to w. Base/Limit are layout constants validated on
// decode.
func (s *BumpSpace) Encode(w *snap.Writer) {
	w.U64(s.Base)
	w.U64(s.Limit)
	w.U64(s.soft)
	w.U64(s.cursor)
	w.U64(s.Allocations)
}

// Decode restores the space's mutable state from r, verifying it was
// encoded from a space over the same region.
func (s *BumpSpace) Decode(r *snap.Reader) error {
	base := r.U64()
	limit := r.U64()
	soft := r.U64()
	cursor := r.U64()
	allocations := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if base != s.Base || limit != s.Limit {
		return fmt.Errorf("heap: %w: space %s covers [%#x,%#x), snapshot covers [%#x,%#x)",
			snap.ErrDecode, s.Name, s.Base, s.Limit, base, limit)
	}
	if soft < base || soft > limit || cursor < base || cursor > soft {
		return fmt.Errorf("heap: %w: space %s snapshot cursor/soft out of range", snap.ErrDecode, s.Name)
	}
	s.soft = soft
	s.cursor = cursor
	s.Allocations = allocations
	return nil
}

// Encode appends the LOS's mutable state to w: cursor, the free runs in
// list order (first-fit scans in this order, so it is semantically
// significant), and the live-allocation size table in address order.
func (l *LargeObjectSpace) Encode(w *snap.Writer) {
	w.U64(l.Base)
	w.U64(l.Limit)
	w.U64(l.cursor)
	w.U64(uint64(len(l.free)))
	for _, fr := range l.free {
		w.U64(fr.addr)
		w.U64(fr.size)
	}
	w.U64(l.used)
	addrs := make([]uint64, 0, len(l.sizes))
	for a := range l.sizes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.U64(uint64(len(addrs)))
	for _, a := range addrs {
		w.U64(a)
		w.U64(l.sizes[a])
	}
}

// Decode restores the LOS's mutable state from r.
func (l *LargeObjectSpace) Decode(r *snap.Reader) error {
	base := r.U64()
	limit := r.U64()
	cursor := r.U64()
	nFree := r.Count(16)
	free := make([]run, 0, nFree)
	for i := 0; i < nFree; i++ {
		fr := run{addr: r.U64(), size: r.U64()}
		free = append(free, fr)
	}
	used := r.U64()
	nSizes := r.Count(16)
	sizes := make(map[uint64]uint64, nSizes)
	for i := 0; i < nSizes; i++ {
		a := r.U64()
		sizes[a] = r.U64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if base != l.Base || limit != l.Limit {
		return fmt.Errorf("heap: %w: LOS covers [%#x,%#x), snapshot covers [%#x,%#x)",
			snap.ErrDecode, l.Base, l.Limit, base, limit)
	}
	l.cursor = cursor
	l.free = free
	l.used = used
	l.sizes = sizes
	return nil
}
