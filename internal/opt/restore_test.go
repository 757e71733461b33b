package opt

import (
	"encoding/binary"
	"errors"
	"testing"

	"hpmvm/internal/obs"
	"hpmvm/internal/snap"
)

// populated returns one instance of each guarded kind carrying every
// optional snapshot section — history, an open decision (with the
// prefetch kind's revert payload) — and a manager over both carrying
// records of each verdict, all built without a VM: Snapshot and Restore
// touch only the component's own state.
func populated() map[string]snap.Checkpointable {
	gs := func(state any) guardState {
		return guardState{
			seen:      41,
			history:   []point{{10, 2, 1}, {25, 6, 3}, {40, 9, 4}},
			open:      &Decision{Target: 2, Label: "packed", AppliedPoll: 3, State: state},
			baseline:  0.25,
			decisions: 3,
			reverts:   1,
			badDone:   true,
		}
	}
	sites := map[uint64]int64{0x1000: 256, 0x1040: -128}
	methods := map[uint64]int{0x1000: 3, 0x1040: 4}
	return map[string]snap.Checkpointable{
		KindCodeLayout: &CodeLayout{
			guarded:    guarded{guardState: gs(nil)},
			samples:    map[int]uint64{3: 700, 9: 12},
			lastLayout: []int{3, 9},
		},
		KindSwPrefetch: &SwPrefetch{
			guarded:     guarded{guardState: gs(&swPlan{sites: map[uint64]int64{0x1000: 128}, methods: map[uint64]int{0x1000: 3}})},
			streams:     map[uint64]*swStream{0x1000: {lastAddr: 0x5000, stride: 128, conf: 4, seen: 9, methodID: 3}},
			installed:   sites,
			siteMethods: methods,
		},
		managerComponent: &Manager{opts: managed(), records: []Record{
			{Cycle: 10, Kind: KindSwPrefetch, Target: 0, Label: "three sites", Code: obs.DecisionActivate, B: 1.5},
			{Cycle: 20, Kind: KindCodeLayout, Verdict: VerdictKeep, Target: 4, Label: "packed", A: 0.01, B: 0.02},
			{Cycle: 30, Kind: KindSwPrefetch, Verdict: VerdictBad, Target: 0, Label: "three sites",
				Code: obs.DecisionRevertRate, A: 2, B: 1.5},
		}},
	}
}

// managed is the registered set of the manager populated builds.
func managed() []Optimization { return []Optimization{&CodeLayout{}, &SwPrefetch{}} }

// blank returns an empty instance of the same kind to restore into.
func blank(kind string) snap.Checkpointable {
	switch kind {
	case KindCodeLayout:
		return &CodeLayout{}
	case KindSwPrefetch:
		return &SwPrefetch{}
	}
	return &Manager{opts: managed()}
}

// TestManagerRestoreRefuses holds the records' two enumerations to the
// registered set: a kind index outside it and an unknown verdict fail
// with snap.ErrDecode and leave the receiver unchanged.
func TestManagerRestoreRefuses(t *testing.T) {
	valid := populated()[managerComponent].Snapshot()
	// The first record's words: count, cycle, kind index, verdict.
	for _, tc := range []struct {
		name string
		off  int
		val  uint64
	}{
		{"kind index outside the registered set", 16, 2},
		{"negative kind index", 16, 1 << 63},
		{"unknown verdict", 24, uint64(VerdictBad) + 1},
	} {
		data := append([]byte(nil), valid.Data...)
		binary.LittleEndian.PutUint64(data[tc.off:], tc.val)
		m := populated()[managerComponent]
		before := m.Snapshot()
		err := m.Restore(snap.ComponentState{Component: valid.Component, Version: valid.Version, Data: data})
		if !errors.Is(err, snap.ErrDecode) {
			t.Errorf("%s: Restore error = %v, want snap.ErrDecode", tc.name, err)
		}
		if string(m.Snapshot().Data) != string(before.Data) {
			t.Errorf("%s: failed Restore modified the receiver", tc.name)
		}
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	for kind, op := range populated() {
		st := op.Snapshot()
		fresh := blank(kind)
		if err := fresh.Restore(st); err != nil {
			t.Fatalf("%s: restore of a valid blob: %v", kind, err)
		}
		if again := fresh.Snapshot(); string(again.Data) != string(st.Data) {
			t.Errorf("%s: snapshot → restore → snapshot is not byte-identical", kind)
		}
	}
}

// TestRestoreRejectsMalformed sweeps the three corruption shapes over a
// fully populated blob of each kind: every truncation, one trailing
// byte, and an absurd value (1<<62) written over every offset — which
// hits each length prefix wherever the layout puts it. Restore must
// never panic, must fail only with snap.ErrDecode, and must leave the
// receiver untouched when it fails.
func TestRestoreRejectsMalformed(t *testing.T) {
	for kind, op := range populated() {
		valid := op.Snapshot()
		restore := func(name string, data []byte, mustFail bool) {
			t.Helper()
			target := blank(kind)
			before := target.Snapshot()
			err := target.Restore(snap.ComponentState{Component: valid.Component, Version: valid.Version, Data: data})
			switch {
			case err == nil && mustFail:
				t.Errorf("%s %s: malformed blob accepted", kind, name)
			case err != nil && !errors.Is(err, snap.ErrDecode):
				t.Errorf("%s %s: error %v does not wrap snap.ErrDecode", kind, name, err)
			case err != nil && string(target.Snapshot().Data) != string(before.Data):
				t.Errorf("%s %s: failed restore modified the receiver", kind, name)
			}
		}
		for n := 0; n < len(valid.Data); n++ {
			restore("truncated", valid.Data[:n], true)
		}
		restore("trailing byte", append(append([]byte(nil), valid.Data...), 0), true)
		for off := 0; off+8 <= len(valid.Data); off++ {
			data := append([]byte(nil), valid.Data...)
			binary.LittleEndian.PutUint64(data[off:], 1<<62)
			// Over a plain counter the huge value is still a valid
			// encoding; over a length prefix it must be rejected, and
			// either way it must not panic.
			restore("oversized", data, false)
		}
	}
}
