package aos

import (
	"sort"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the adaptive
// optimization system: the sampler deadline, the per-method sample and
// level tables, the recorded plan, and the recompilation counters.

const (
	snapComponent = "vm/aos"
	snapVersion   = 1
)

func encodeIntMapU64(w *snap.Writer, m map[int]uint64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.I64(int64(k))
		w.U64(m[k])
	}
}

func decodeIntMapU64(r *snap.Reader) map[int]uint64 {
	n := r.Count(16)
	m := make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		k := int(r.I64())
		m[k] = r.U64()
	}
	return m
}

func encodeIntMapInt(w *snap.Writer, m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.I64(int64(k))
		w.I64(int64(m[k]))
	}
}

func decodeIntMapInt(r *snap.Reader) map[int]int {
	n := r.Count(16)
	m := make(map[int]int, n)
	for i := 0; i < n; i++ {
		k := int(r.I64())
		m[k] = int(r.I64())
	}
	return m
}

// Snapshot serializes the AOS's mutable state.
func (a *AOS) Snapshot() snap.ComponentState {
	var w snap.Writer
	w.U64(a.deadline)
	encodeIntMapU64(&w, a.samples)
	encodeIntMapInt(&w, a.level)
	encodeIntMapInt(&w, map[int]int(a.plan))
	w.U64(a.recompilations)
	w.U64(a.compileCycles)
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the AOS's mutable state. Pair with Reattach on a
// restored system: Attach would reset the sampler deadline, destroying
// the restored value.
func (a *AOS) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	deadline := r.U64()
	samples := decodeIntMapU64(r)
	level := decodeIntMapInt(r)
	plan := decodeIntMapInt(r)
	recompilations := r.U64()
	compileCycles := r.U64()
	if err := r.Close(); err != nil {
		return err
	}
	a.deadline = deadline
	a.samples = samples
	a.level = level
	for k := range a.plan {
		delete(a.plan, k)
	}
	for k, v := range plan {
		a.plan[k] = v
	}
	a.recompilations = recompilations
	a.compileCycles = compileCycles
	return nil
}

// Reattach registers the AOS sampler with the VM without resetting the
// restored deadline (Attach computes a fresh one).
func (a *AOS) Reattach() {
	a.vm.AddTicker(a)
}
