package runtime

import (
	"errors"
	"fmt"

	"hpmvm/internal/snap"
)

// Snapshot/Restore implement snap.Checkpointable for the VM core. The
// serialized state is deliberately small: the immortal bump pointer,
// the emitted results, the failure/start flags, the allocation
// counters, and the post-boot recompile log. Machine code, dispatch
// tables, GC maps and optimizer results are NOT serialized — Restore
// requires a freshly booted VM for the same workload and replays the
// recompile log through CompileMethod, which deterministically rebuilds
// the identical code layout (the memory writes this performs are
// overwritten moments later when the memory image is restored, so they
// only matter for the VM-side tables).

const (
	snapComponent = "vm/runtime"
	snapVersion   = 1
)

// Snapshot serializes the VM's mutable state.
func (vm *VM) Snapshot() snap.ComponentState {
	var w snap.Writer
	vm.Immortal.Encode(&w)
	w.U64(uint64(len(vm.results)))
	for _, v := range vm.results {
		w.I64(v)
	}
	w.Bool(vm.failure != nil)
	if vm.failure != nil {
		w.String(vm.failure.Error())
	}
	w.Bool(vm.started)
	w.U64(vm.allocations)
	w.U64(vm.allocatedByte)
	w.U64(uint64(len(vm.recompileLog)))
	for _, e := range vm.recompileLog {
		w.I64(int64(e.methodID))
		w.I64(int64(e.level))
	}
	return snap.ComponentState{Component: snapComponent, Version: snapVersion, Data: w.Bytes()}
}

// Restore overwrites the VM's mutable state and replays the recompile
// log. The receiver must be freshly booted (BuildDispatch + CompileAll
// + MarkBootComplete) for the same workload and compile plan as the
// snapshot's origin; the replay then appends the same post-boot bodies
// in the same order, reproducing the origin's code and table layout.
// Restore the memory image and CPU after this (the replay writes
// dispatch slots the memory restore will overwrite).
func (vm *VM) Restore(st snap.ComponentState) error {
	if err := snap.Check(st, snapComponent, snapVersion); err != nil {
		return err
	}
	r := snap.NewReader(st.Data)
	var immortal = vm.Immortal
	// Decode into a scratch copy first so a malformed payload cannot
	// leave the immortal space half-restored.
	scratch := *immortal
	if err := scratch.Decode(r); err != nil {
		return err
	}
	nResults := r.Count(8)
	results := make([]int64, 0, nResults)
	for i := 0; i < nResults; i++ {
		results = append(results, r.I64())
	}
	var failure error
	if r.Bool() {
		failure = errors.New(r.String())
	}
	started := r.Bool()
	allocations := r.U64()
	allocatedByte := r.U64()
	nLog := r.Count(16)
	log := make([]recompileEntry, 0, nLog)
	for i := 0; i < nLog; i++ {
		var e recompileEntry
		e.methodID = int(r.I64())
		e.level = int(r.I64())
		log = append(log, e)
	}
	if err := r.Close(); err != nil {
		return err
	}
	if len(vm.recompileLog) != 0 {
		return fmt.Errorf("vm: restore requires a freshly booted VM (recompile log not empty)")
	}
	for _, e := range log {
		if e.methodID == padMethodID {
			// Code-layout pad entry: level carries the pad length.
			vm.InstallPad(e.level)
			continue
		}
		if e.methodID < 0 || e.methodID >= len(vm.U.Methods()) {
			return fmt.Errorf("vm: %w: recompile log method id %d not in universe", snap.ErrDecode, e.methodID)
		}
		if err := vm.CompileMethod(vm.U.Method(e.methodID), e.level); err != nil {
			return fmt.Errorf("vm: recompile replay failed for method %d level %d: %w", e.methodID, e.level, err)
		}
	}
	*immortal = scratch
	vm.results = results
	vm.failure = failure
	vm.started = started
	vm.allocations = allocations
	vm.allocatedByte = allocatedByte
	vm.recompileLog = log
	return nil
}
