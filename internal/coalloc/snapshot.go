package coalloc

import (
	"fmt"
	"sort"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the co-allocation
// policy: the per-field placement state machines, the class->state
// index (serialized as class ID -> field ID so restored entries share
// the same *fieldState as the fields table), the intervention latch and
// the decision log.

const (
	snapComponent = "coalloc"
	snapVersion   = 1
)

// Snapshot serializes the policy's mutable state.
func (p *Policy) Snapshot() snap.ComponentState {
	var w snap.Writer
	fieldIDs := make([]int, 0, len(p.fields))
	for id := range p.fields {
		fieldIDs = append(fieldIDs, id)
	}
	sort.Ints(fieldIDs)
	w.U64(uint64(len(fieldIDs)))
	for _, id := range fieldIDs {
		st := p.fields[id]
		w.I64(int64(id))
		w.I64(int64(st.mode))
		w.U64(st.gap)
		w.F64(st.baselineRate)
		w.I64(int64(st.activatedAt))
		w.U64(st.pairsAdj)
		w.U64(st.pairsGapped)
		w.I64(int64(st.reverts))
		w.U64(st.abMarkAdj)
		w.U64(st.abMarkGap)
	}
	classIDs := make([]int, 0, len(p.byClass))
	for id := range p.byClass {
		classIDs = append(classIDs, id)
	}
	sort.Ints(classIDs)
	w.U64(uint64(len(classIDs)))
	for _, id := range classIDs {
		w.I64(int64(id))
		w.I64(int64(p.byClass[id].field.ID))
	}
	w.Bool(p.intervened)
	w.U64(uint64(len(p.events)))
	for _, e := range p.events {
		w.String(e)
	}
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the policy's mutable state. Field IDs are
// re-resolved through the monitor's universe; byClass entries are
// re-pointed at the restored fieldState objects so the pointer sharing
// of the live structure is preserved.
func (p *Policy) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	u := p.mon.Universe()
	r := snap.NewReader(st.Data)
	nFields := r.Count(80)
	fields := make(map[int]*fieldState, nFields)
	for i := 0; i < nFields; i++ {
		id := int(r.I64())
		fs := &fieldState{}
		fs.mode = fieldMode(r.I64())
		fs.gap = r.U64()
		fs.baselineRate = r.F64()
		fs.activatedAt = int(r.I64())
		fs.pairsAdj = r.U64()
		fs.pairsGapped = r.U64()
		fs.reverts = int(r.I64())
		fs.abMarkAdj = r.U64()
		fs.abMarkGap = r.U64()
		if r.Err() != nil {
			break
		}
		if id < 0 || id >= len(u.Fields()) {
			return fmt.Errorf("coalloc: %w: field id %d not in universe", snap.ErrDecode, id)
		}
		fs.field = u.Field(id)
		fields[id] = fs
	}
	type classEntry struct{ classID, fieldID int }
	classEntries := make([]classEntry, r.Count(16))
	for i := range classEntries {
		classEntries[i] = classEntry{classID: int(r.I64()), fieldID: int(r.I64())}
	}
	intervened := r.Bool()
	events := make([]string, r.Count(8))
	for i := range events {
		events[i] = r.String()
	}
	if err := r.Close(); err != nil {
		return err
	}
	byClass := make(map[int]*fieldState, len(classEntries))
	for _, ce := range classEntries {
		fs := fields[ce.fieldID]
		if fs == nil {
			return fmt.Errorf("coalloc: %w: class %d references unknown field state %d",
				snap.ErrDecode, ce.classID, ce.fieldID)
		}
		byClass[ce.classID] = fs
	}
	p.fields = fields
	p.byClass = byClass
	p.intervened = intervened
	p.events = events
	return nil
}
