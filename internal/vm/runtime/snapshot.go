package runtime

import (
	"errors"
	"fmt"

	"hpmvm/internal/gc/heap"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/snap"
	"hpmvm/internal/vm/bytecode"
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

// vmState is the wire form: the serialized fields, copied out of the VM
// so that Restore can validate and replay the log before any of them
// reaches it. The failure travels as a flag and its message.
type vmState struct {
	immortal      heap.BumpSpace
	results       []int64
	failed        bool
	failure       string
	started       bool
	allocations   uint64
	allocatedByte uint64
	log           []recompileEntry
}

func (s *vmState) walk(c *snap.Codec) {
	s.immortal.Walk(c)
	snap.Slice(c, &s.results, (*snap.Codec).I64)
	c.Bool(&s.failed)
	if s.failed {
		c.String(&s.failure)
	}
	c.Bool(&s.started)
	c.U64(&s.allocations)
	c.U64(&s.allocatedByte)
	snap.Slice(c, &s.log, func(c *snap.Codec, e *recompileEntry) {
		snap.Int(c, &e.methodID)
		snap.Int(c, &e.level)
	})
}

// Snapshot serializes the VM's mutable state.
func (vm *VM) Snapshot() snap.ComponentState {
	s := vmState{immortal: *vm.Immortal, results: vm.results, started: vm.started,
		allocations: vm.allocations, allocatedByte: vm.allocatedByte, log: vm.recompileLog}
	if vm.failure != nil {
		s.failed, s.failure = true, vm.failure.Error()
	}
	return snap.Encode(snapComponent, snapVersion, s.walk)
}

// checkLog validates every recompile-log entry against this VM before
// the first is replayed: method ids must name a method with bytecode,
// and the pads (method id -1, level = instructions) must be lengths the
// code space below the stack can still hold — InstallPad allocates
// them.
func (vm *VM) checkLog(log []recompileEntry) error {
	room := (heap.StackTop - StackSize - vm.CPU.NextCodeAddr()) / cpu.InstrBytes
	for _, e := range log {
		switch {
		case e.methodID == padMethodID:
			if e.level < 0 || uint64(e.level) > room {
				return fmt.Errorf("vm: %w: recompile log pad of %d instructions, code space has room for %d", snap.ErrDecode, e.level, room)
			}
			room -= uint64(e.level)
		case e.methodID < 0 || e.methodID >= len(vm.U.Methods()):
			return fmt.Errorf("vm: %w: recompile log method id %d not in universe", snap.ErrDecode, e.methodID)
		default:
			if code, _ := vm.U.Method(e.methodID).Code.(*bytecode.Code); code == nil {
				return fmt.Errorf("vm: %w: recompile log method id %d has no bytecode", snap.ErrDecode, e.methodID)
			}
		}
	}
	return nil
}

// Restore overwrites the VM's mutable state and replays the recompile
// log. The receiver must be freshly booted (BuildDispatch + CompileAll
// + MarkBootComplete) for the same workload and compile plan as the
// snapshot's origin; the replay then appends the same post-boot bodies
// in the same order, reproducing the origin's code and table layout.
// Restore the memory image and CPU after this (the replay writes
// dispatch slots the memory restore will overwrite).
//
// The replay is the one step a failed Restore cannot take back: a log
// that passes checkLog but names a body the optimizing compiler then
// refuses leaves the earlier entries installed. The VM's own log is no
// longer empty then, so it refuses every later Restore.
func (vm *VM) Restore(st snap.ComponentState) error {
	s := vmState{immortal: *vm.Immortal}
	if err := snap.Decode(st, snapComponent, snapVersion, s.walk); err != nil {
		return err
	}
	if len(vm.recompileLog) != 0 {
		return fmt.Errorf("vm: restore requires a freshly booted VM (recompile log not empty)")
	}
	if err := vm.checkLog(s.log); err != nil {
		return err
	}
	for _, e := range s.log {
		if e.methodID == padMethodID {
			vm.InstallPad(e.level)
		} else if err := vm.CompileMethod(vm.U.Method(e.methodID), e.level); err != nil {
			return fmt.Errorf("vm: %w: recompile replay failed for method %d level %d: %v", snap.ErrDecode, e.methodID, e.level, err)
		}
	}
	*vm.Immortal = s.immortal
	vm.results = s.results
	vm.failure = nil
	if s.failed {
		vm.failure = errors.New(s.failure)
	}
	vm.started = s.started
	vm.allocations = s.allocations
	vm.allocatedByte = s.allocatedByte
	vm.recompileLog = s.log
	return nil
}
