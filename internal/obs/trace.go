package obs

import (
	"encoding/json"
	"fmt"
)

// EventKind identifies a traced event type. The taxonomy mirrors the
// paper's sample flow (§4.1): hardware overflow interrupts feed the
// kernel module, the monitor polls the module, and the decoded
// feedback drives the managed optimizations' decisions — plus the GC
// and recompilation activity those decisions ride on.
type EventKind uint8

const (
	// EvGCStart marks the start of a collection. Arg0 is the
	// generation: 0 for a minor (nursery) GC, 1 for a major GC.
	EvGCStart EventKind = iota
	// EvGCEnd marks the end of a collection. Arg0 is the generation,
	// Arg1 the simulated cycles the collection consumed.
	EvGCEnd
	// EvPEBSInterrupt records a sample-buffer watermark interrupt.
	// Arg0 is the number of buffered samples at overflow, Arg1 the
	// unit's cumulative interrupt count.
	EvPEBSInterrupt
	// EvPerfmonRead records a user-space copy-out of kernel-buffered
	// samples. Arg0 is the number of samples copied, Arg1 the samples
	// still pending in the kernel buffer, Arg2 the cumulative samples
	// lost to kernel-buffer overflow.
	EvPerfmonRead
	// EvMonitorPoll records one collector-thread poll. Arg0 is the
	// number of samples read this poll, Arg1 the cumulative decoded
	// samples, Arg2 the cumulative dropped (unmapped-PC) samples.
	EvMonitorPoll
	// EvPhaseChange records a detected execution-phase change on a
	// field's miss-rate series. Arg0 is the field ID.
	EvPhaseChange
	// A retired kind keeps its slot, so every later kind keeps its
	// serialized number.
	_
	// EvRecompile records a method recompilation. Arg0 is the method
	// ID, Arg1 the new optimization level.
	EvRecompile
	// EvCacheWindow records a cache measurement-window snapshot taken
	// when the window is closed (Hierarchy.ResetStats). Arg0 is the
	// window's demand accesses, Arg1 its L1 misses, Arg2 the memory
	// cycles charged in the window.
	EvCacheWindow
	// EvSnapshotTaken records a whole-system checkpoint, emitted into
	// the origin's trace after the state was captured (so the snapshot
	// itself never contains it and exact restores stay byte-identical
	// to uninterrupted runs). Arg0 is the snapshot cycle, Arg1 the
	// number of component states captured.
	EvSnapshotTaken
	// Retired, like the slot above.
	_
	// EvOptDecision records a decision applied by a managed online
	// optimization (internal/opt). Arg0 is the optimization's
	// registration index with the manager, Arg1 the decision target
	// (kind-specific: a field ID, a layout epoch, a site ID), Arg2 the
	// decision code.
	EvOptDecision
	// EvOptRevert records a managed decision undone by the online
	// assessment (Figure-7-style bad-decision detection generalized to
	// any optimization kind). Arguments mirror EvOptDecision.
	EvOptRevert
	numEventKinds
)

// Decision codes carried in EvOptDecision's and EvOptRevert's Arg2.
const (
	// DecisionActivate: a hot field entered active co-allocation.
	DecisionActivate uint64 = iota
	// DecisionRevertAB: the A/B assessment reverted a gapped placement.
	DecisionRevertAB
	// DecisionRevertRate: the rate fallback reverted a gapped placement.
	DecisionRevertRate
	// DecisionIntervene: the Figure 8 manual intervention forced a gap.
	DecisionIntervene
)

var kindNames = [numEventKinds]string{
	EvGCStart:       "gc_start",
	EvGCEnd:         "gc_end",
	EvPEBSInterrupt: "pebs_interrupt",
	EvPerfmonRead:   "perfmon_read",
	EvMonitorPoll:   "monitor_poll",
	EvPhaseChange:   "phase_change",
	EvRecompile:     "recompile",
	EvCacheWindow:   "cache_window",
	EvSnapshotTaken: "snapshot_taken",
	EvOptDecision:   "opt_decision",
	EvOptRevert:     "opt_revert",
}

// String returns the stable export name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("event_kind_%d", uint8(k))
}

// KindFromString maps an export name back to its EventKind.
func KindFromString(s string) (EventKind, bool) {
	for k, name := range kindNames {
		if name != "" && name == s {
			return EventKind(k), true
		}
	}
	return 0, false
}

// MarshalJSON encodes the kind as its stable name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	kind, ok := KindFromString(s)
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", s)
	}
	*k = kind
	return nil
}

// Event is one fixed-size trace record. The three argument words are
// interpreted per kind (see the EventKind constants).
type Event struct {
	Cycle uint64    `json:"cycle"`
	Kind  EventKind `json:"kind"`
	Arg0  uint64    `json:"arg0"`
	Arg1  uint64    `json:"arg1"`
	Arg2  uint64    `json:"arg2"`
}

// Trace is the fixed-size event ring. It is not safe for concurrent
// use on its own; the Observer serializes access.
type Trace struct {
	buf     []Event
	start   int // index of the oldest stored event
	n       int // number of stored events
	emitted uint64
	dropped uint64
}

// emit appends e, overwriting the oldest event when the ring is full.
func (t *Trace) emit(e Event) {
	t.emitted++
	if t.n < len(t.buf) {
		t.buf[(t.start+t.n)%len(t.buf)] = e
		t.n++
		return
	}
	t.buf[t.start] = e
	t.start = (t.start + 1) % len(t.buf)
	t.dropped++
}

// events returns the stored events oldest-first.
func (t *Trace) events() []Event {
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}
