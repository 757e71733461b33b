package core

import (
	"errors"
	"fmt"
	"math/rand"

	"hpmvm/internal/obs"
	"hpmvm/internal/opt"
	"hpmvm/internal/snap"
)

// This file is the composition layer of the Snapshot/Restore contract
// (package snap): System.Snapshot captures every live component's
// state into one versioned, deterministically encoded container, and
// System.Restore rebuilds a freshly booted System to that exact point.
//
// The contract is replay-based: a snapshot holds only mutable state.
// Code, dispatch tables and class metadata are reproduced by booting a
// fresh System for the same (workload, options) and replaying the
// VM's post-boot recompile log; Restore therefore requires a booted,
// not-yet-run receiver. Component order is significant and fixed by
// System.components: the VM restores first (the replay rebuilds the
// code layout), then memory and CPU (overwriting the replay's writes
// with the origin's exact image), then the devices and policies, and
// the observer last (overwriting any events the replay emitted).

// SnapshotVersion is the container format version. A version-1
// container, whose header also held a prefix fingerprint and a sampling
// interval, is refused.
const SnapshotVersion uint32 = 2

// snapshotMagic leads the binary encoding.
const snapshotMagic = "hpmvmsnap"

// ErrSnapshotMismatch is the sentinel wrapped when a snapshot is
// restored into a System whose options do not match the snapshot's
// fingerprint. Callers distinguish configuration mismatches from
// corrupt payloads with errors.Is(err, core.ErrSnapshotMismatch).
var ErrSnapshotMismatch = errors.New("snapshot does not match system options")

// Snapshot is a whole-system checkpoint: the component states plus the
// identity needed to validate a restore target. Fingerprint ties the
// snapshot to the exact resolved Options of its origin. Tag is
// free-form caller identity — the bench engine stores the workload name
// and refuses to warm-start a different workload from it.
type Snapshot struct {
	Version     uint32
	Fingerprint string
	Tag         string

	// Cycle is the simulated cycle the snapshot was taken at.
	Cycle uint64
	// RngDraws is the position of the deterministic PRNG stream.
	RngDraws uint64

	Components []snap.ComponentState
}

// component pairs a checkpointable with its registered name.
type component struct {
	name string
	c    snap.Checkpointable
}

// components returns the live checkpointable components in capture
// order — which is also the restore order (see the file comment).
func (s *System) components() []component {
	list := []component{
		{"vm/runtime", s.VM},
		{"hw/mem", s.VM.Mem},
		{"hw/cpu", s.VM.CPU},
		{"hw/cache", s.VM.Hier},
		{"hw/pebs", s.Unit},
		{"kernel/perfmon", s.Module},
	}
	if s.GenMS != nil {
		list = append(list, component{"gc/genms", s.GenMS})
	}
	if s.GenCopy != nil {
		list = append(list, component{"gc/gencopy", s.GenCopy})
	}
	if s.Monitor != nil {
		list = append(list, component{"monitor", s.Monitor})
	}
	if s.OptManager != nil {
		list = append(list, component{"opt", s.OptManager})
		for _, op := range s.OptManager.Optimizations() {
			if c, ok := op.(snap.Checkpointable); ok {
				d, _ := opt.Lookup(op.Kind())
				list = append(list, component{d.Component, c})
			}
		}
	}
	if s.AOS != nil {
		list = append(list, component{"vm/aos", s.AOS})
	}
	if s.Obs != nil {
		list = append(list, component{"obs", s.Obs})
	}
	return list
}

// Snapshot captures the full simulation state. The system should be at
// a scheduling point — freshly paused by RunToCycle, or finished — so
// no component is mid-operation. After the capture an EvSnapshotTaken
// event is emitted into the origin's own trace (never into the
// snapshot), so an exact restore reproduces the uninterrupted run's
// trace byte for byte.
func (s *System) Snapshot() (*Snapshot, error) {
	if !s.booted {
		return nil, fmt.Errorf("core: snapshot of an unbooted system")
	}
	if s.Opts.Sampling != nil {
		// The region scheduler's phase state is not a snapshot
		// component, and sampled cycle counts are estimates a restored
		// exact run could never line up with; sampled runs are cheap to
		// redo by construction, so they opt out of the contract.
		return nil, fmt.Errorf("core: snapshot of a sampled-simulation system is not supported")
	}
	comps := s.components()
	sn := &Snapshot{
		Version:     SnapshotVersion,
		Fingerprint: s.Opts.Fingerprint(),
		Cycle:       s.VM.Cycles(),
		RngDraws:    s.rngSrc.draws,
		Components:  make([]snap.ComponentState, 0, len(comps)),
	}
	for _, c := range comps {
		sn.Components = append(sn.Components, c.c.Snapshot())
	}
	if s.Obs != nil {
		s.Obs.Emit(obs.EvSnapshotTaken, s.VM.Cycles(), sn.Cycle, uint64(len(sn.Components)), 0)
	}
	return sn, nil
}

// Restore rebuilds the receiver to the snapshot's exact point. The
// receiver must be freshly constructed (NewSystemOpts) and booted
// (Boot) for the same workload and must not have run. Its options must
// have the snapshot's Fingerprint; any other options, a different
// sampling interval included, fail with an error wrapping
// ErrSnapshotMismatch. The restored system is byte-identical to the
// origin; continuing it with ResumeContext reproduces the uninterrupted
// run exactly. No event is emitted.
func (s *System) Restore(sn *Snapshot) error {
	if sn.Version != SnapshotVersion {
		return fmt.Errorf("core: %w: snapshot version %d, supported %d",
			snap.ErrDecode, sn.Version, SnapshotVersion)
	}
	if sn.Fingerprint != s.Opts.Fingerprint() {
		return fmt.Errorf("core: %w (snapshot %.12s…, system %.12s…)",
			ErrSnapshotMismatch, sn.Fingerprint, s.Opts.Fingerprint())
	}
	if !s.booted {
		return fmt.Errorf("core: restore into an unbooted system")
	}
	if s.ran {
		return fmt.Errorf("core: restore into a system that has already run")
	}

	comps := s.components()
	byName := make(map[string]snap.ComponentState, len(sn.Components))
	for _, st := range sn.Components {
		if _, dup := byName[st.Component]; dup {
			return fmt.Errorf("core: %w: duplicate component %q", snap.ErrDecode, st.Component)
		}
		byName[st.Component] = st
	}
	if len(byName) != len(comps) {
		return fmt.Errorf("core: %w: snapshot has %d components, system has %d (options or observer mismatch)",
			ErrSnapshotMismatch, len(byName), len(comps))
	}
	for _, c := range comps {
		if _, ok := byName[c.name]; !ok {
			return fmt.Errorf("core: %w: snapshot missing component %q", ErrSnapshotMismatch, c.name)
		}
	}

	// Reposition the PRNG stream. That is linear in the draw count, so a
	// header claiming more draws than cycles is refused first: the
	// sampling unit draws once per programmed session and once per
	// sampled event, and either costs at least a cycle.
	if sn.RngDraws > sn.Cycle {
		return fmt.Errorf("core: %w: %d PRNG draws in %d cycles", snap.ErrDecode, sn.RngDraws, sn.Cycle)
	}
	src := rand.NewSource(s.Opts.Seed).(rand.Source64)
	for i := uint64(0); i < sn.RngDraws; i++ {
		src.Uint64()
	}
	s.rngSrc.src = src
	s.rngSrc.draws = sn.RngDraws

	for _, c := range comps {
		if err := c.c.Restore(byName[c.name]); err != nil {
			return fmt.Errorf("core: restore %s: %w", c.name, err)
		}
	}
	return nil
}

// EncodeSnapshot serializes sn into the deterministic binary container
// format: equal snapshots encode to equal bytes. The container is not a
// snap.Codec walk: DecodeSnapshot's magic and version checks gate the
// rest of the parse, and its components are opaque nested states.
func EncodeSnapshot(sn *Snapshot) []byte {
	var w snap.Writer
	w.String(snapshotMagic)
	w.U32(sn.Version)
	w.String(sn.Fingerprint)
	w.String(sn.Tag)
	w.U64(sn.Cycle)
	w.U64(sn.RngDraws)
	w.U64(uint64(len(sn.Components)))
	for _, st := range sn.Components {
		w.State(st)
	}
	return w.Bytes()
}

// DecodeSnapshot parses a container produced by EncodeSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := snap.NewReader(data)
	if magic := r.String(); r.Err() == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("core: %w: bad snapshot magic %q", snap.ErrDecode, magic)
	}
	sn := &Snapshot{}
	sn.Version = r.U32()
	if r.Err() == nil && sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: %w: snapshot version %d, supported %d",
			snap.ErrDecode, sn.Version, SnapshotVersion)
	}
	sn.Fingerprint = r.String()
	sn.Tag = r.String()
	sn.Cycle = r.U64()
	sn.RngDraws = r.U64()
	// A component is at least two length prefixes and a version.
	n := r.Count(20)
	sn.Components = make([]snap.ComponentState, 0, n)
	for i := 0; i < n; i++ {
		sn.Components = append(sn.Components, r.State())
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return sn, nil
}

// RestoreSystem decodes an encoded snapshot and restores it into sys —
// the one-call path the serve layer and bench engine use.
func RestoreSystem(sys *System, data []byte) (*Snapshot, error) {
	sn, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if err := sys.Restore(sn); err != nil {
		return nil, err
	}
	return sn, nil
}
