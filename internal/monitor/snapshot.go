package monitor

import (
	"fmt"
	"sort"

	"hpmvm/internal/snap"
	"hpmvm/internal/stats"
	"hpmvm/internal/vm/classfile"
)

// Snapshot/Restore implement snap.Checkpointable for the collector
// thread: the poll schedule, the per-field and per-method counter
// tables (with their time series), the phase-event log, the adaptive
// controller state and the activity counters. Field and method
// pointers are serialized as universe IDs and re-resolved on restore;
// the pairsByMethod cache is dropped and rebuilt lazily (its contents
// are a deterministic function of the compiled code).

const (
	snapComponent = "monitor"
	snapVersion   = 1
)

func encodeSeries(w *snap.Writer, s *stats.Series) {
	w.U64(uint64(len(s.Samples)))
	for _, sm := range s.Samples {
		w.U64(sm.Time)
		w.F64(sm.Value)
	}
}

func decodeSeries(r *snap.Reader, s *stats.Series) {
	n := r.Count(16)
	s.Samples = make([]stats.Sample, 0, n)
	for i := 0; i < n; i++ {
		t := r.U64()
		v := r.F64()
		s.Samples = append(s.Samples, stats.Sample{Time: t, Value: v})
	}
}

func encodeI32MapU64(w *snap.Writer, m map[int32]uint64) {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.I64(int64(k))
		w.U64(m[k])
	}
}

func decodeI32MapU64(r *snap.Reader) map[int32]uint64 {
	n := r.Count(16)
	m := make(map[int32]uint64, n)
	for i := 0; i < n; i++ {
		k := int32(r.I64())
		m[k] = r.U64()
	}
	return m
}

// Snapshot serializes the monitor's mutable state.
func (m *Monitor) Snapshot() snap.ComponentState {
	var w snap.Writer
	w.U64(m.deadline)
	w.U64(m.pollGap)

	fieldIDs := make([]int, 0, len(m.fields))
	for id := range m.fields {
		fieldIDs = append(fieldIDs, id)
	}
	sort.Ints(fieldIDs)
	w.U64(uint64(len(fieldIDs)))
	for _, id := range fieldIDs {
		fc := m.fields[id]
		w.I64(int64(id))
		w.U64(fc.Samples)
		w.U64(fc.EstimatedMisses)
		encodeSeries(&w, &fc.Series)
		encodeSeries(&w, &fc.RateSeries)
		w.U64(fc.AdjacentSamples)
		w.U64(fc.GappedSamples)
		w.U64(fc.periodSamples)
		w.U64(fc.periodWeight)
		w.F64(fc.prevWindowRate)
	}

	methodIDs := make([]int, 0, len(m.methods))
	for id := range m.methods {
		methodIDs = append(methodIDs, id)
	}
	sort.Ints(methodIDs)
	w.U64(uint64(len(methodIDs)))
	for _, id := range methodIDs {
		mc := m.methods[id]
		w.I64(int64(id))
		w.U64(mc.Samples)
		encodeI32MapU64(&w, mc.ByBCI)
		encodeI32MapU64(&w, mc.ByIR)
	}

	w.U64(uint64(len(m.phaseEvents)))
	for _, e := range m.phaseEvents {
		w.String(e)
	}
	w.U64(m.lastAutoCycles)
	w.U64(m.lastAutoEvents)

	st := m.st
	w.U64(st.Polls)
	w.U64(st.SamplesRead)
	w.U64(st.SamplesDecoded)
	w.U64(st.SamplesDropped)
	w.U64(st.FieldsAttributed)
	w.U64(st.MonitorCycles)
	w.U64(st.SamplesNursery)
	w.U64(st.SamplesMature)
	w.U64(st.SamplesLOS)
	w.U64(st.SamplesImmortal)
	w.U64(st.SamplesOther)
	w.U64(m.lastFlush)
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the monitor's mutable state. Field and method IDs
// must resolve in the VM's universe (they do whenever the restored
// system was booted from the same workload). Pair with Reattach on a
// restored system — Attach would reset the poll deadline.
func (m *Monitor) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	u := m.vm.U
	r := snap.NewReader(st.Data)
	deadline := r.U64()
	pollGap := r.U64()

	nFields := r.Count(80)
	fields := make(map[int]*FieldCounter, nFields)
	for i := 0; i < nFields; i++ {
		id := int(r.I64())
		fc := &FieldCounter{}
		fc.Samples = r.U64()
		fc.EstimatedMisses = r.U64()
		decodeSeries(r, &fc.Series)
		decodeSeries(r, &fc.RateSeries)
		fc.AdjacentSamples = r.U64()
		fc.GappedSamples = r.U64()
		fc.periodSamples = r.U64()
		fc.periodWeight = r.U64()
		fc.prevWindowRate = r.F64()
		if r.Err() != nil {
			break
		}
		if id < 0 || id >= len(u.Fields()) {
			return fmt.Errorf("monitor: %w: field id %d not in universe", snap.ErrDecode, id)
		}
		fc.Field = u.Field(id)
		fc.Series.Name = fc.Field.QualifiedName()
		fc.RateSeries.Name = fc.Field.QualifiedName() + ".rate"
		fields[id] = fc
	}

	nMethods := r.Count(32)
	methods := make(map[int]*MethodCounter, nMethods)
	for i := 0; i < nMethods; i++ {
		id := int(r.I64())
		mc := &MethodCounter{}
		mc.Samples = r.U64()
		mc.ByBCI = decodeI32MapU64(r)
		mc.ByIR = decodeI32MapU64(r)
		if r.Err() != nil {
			break
		}
		if id < 0 || id >= len(u.Methods()) {
			return fmt.Errorf("monitor: %w: method id %d not in universe", snap.ErrDecode, id)
		}
		mc.Method = u.Method(id)
		methods[id] = mc
	}

	nPhase := r.Count(8)
	phaseEvents := make([]string, 0, nPhase)
	for i := 0; i < nPhase; i++ {
		phaseEvents = append(phaseEvents, r.String())
	}
	lastAutoCycles := r.U64()
	lastAutoEvents := r.U64()

	var mst Stats
	mst.Polls = r.U64()
	mst.SamplesRead = r.U64()
	mst.SamplesDecoded = r.U64()
	mst.SamplesDropped = r.U64()
	mst.FieldsAttributed = r.U64()
	mst.MonitorCycles = r.U64()
	mst.SamplesNursery = r.U64()
	mst.SamplesMature = r.U64()
	mst.SamplesLOS = r.U64()
	mst.SamplesImmortal = r.U64()
	mst.SamplesOther = r.U64()
	lastFlush := r.U64()
	if err := r.Close(); err != nil {
		return err
	}

	m.deadline = deadline
	m.pollGap = pollGap
	m.fields = fields
	m.methods = methods
	m.pairsByMethod = make(map[int]map[int32]*classfile.Field)
	m.phaseEvents = phaseEvents
	m.lastAutoCycles = lastAutoCycles
	m.lastAutoEvents = lastAutoEvents
	m.st = mst
	m.lastFlush = lastFlush
	return nil
}

// Reattach registers the monitor with the VM's ticker loop without
// resetting the restored poll deadline (Attach computes a fresh one).
func (m *Monitor) Reattach() {
	m.vm.AddTicker(m)
}

// Universe exposes the VM's class universe so policies layered on the
// monitor (coalloc) can re-resolve field IDs during their own Restore.
func (m *Monitor) Universe() *classfile.Universe { return m.vm.U }
