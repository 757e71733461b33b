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
// the emitted results, the failure/start flags and the post-boot
// recompile log. Machine code, dispatch tables, GC maps and optimizer
// results are NOT serialized — Restore requires a freshly booted VM
// for the same workload and replays the recompile log through
// CompileMethod, which deterministically rebuilds the identical code
// layout (the memory writes this performs are overwritten moments
// later when the memory image is restored, so they only matter for the
// VM-side tables).

const (
	snapComponent = "vm/runtime"
	snapVersion   = 2
)

// walk is the VM's layout: the immortal space, then the vmState fields.
// The failure travels as a flag and its message.
func (s *vmState) walk(c *snap.Codec, immortal *heap.BumpSpace) {
	immortal.Walk(c)
	snap.Slice(c, &s.results, (*snap.Codec).I64)
	failed, msg := s.failure != nil, ""
	if failed {
		msg = s.failure.Error()
	}
	c.Bool(&failed)
	if failed {
		c.String(&msg)
	}
	if c.R != nil {
		s.failure = nil
		if failed {
			s.failure = errors.New(msg)
		}
	}
	c.Bool(&s.started)
	snap.Slice(c, &s.recompileLog, func(c *snap.Codec, e *recompileEntry) {
		snap.Int(c, &e.methodID)
		snap.Int(c, &e.level)
	})
}

// Snapshot serializes the VM's mutable state.
func (vm *VM) Snapshot() snap.ComponentState {
	return snap.Encode(snapComponent, snapVersion, func(c *snap.Codec) { vm.walk(c, vm.Immortal) })
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
	next, immortal := vm.vmState, *vm.Immortal
	if err := snap.Decode(st, snapComponent, snapVersion, func(c *snap.Codec) { next.walk(c, &immortal) }); err != nil {
		return err
	}
	if len(vm.recompileLog) != 0 {
		return fmt.Errorf("vm: restore requires a freshly booted VM (recompile log not empty)")
	}
	if err := vm.checkLog(next.recompileLog); err != nil {
		return err
	}
	for _, e := range next.recompileLog {
		if e.methodID == padMethodID {
			vm.InstallPad(e.level)
		} else if err := vm.CompileMethod(vm.U.Method(e.methodID), e.level); err != nil {
			return fmt.Errorf("vm: %w: recompile replay failed for method %d level %d: %v", snap.ErrDecode, e.methodID, e.level, err)
		}
	}
	// The replay logged itself into the live state; the decoded log is
	// the same entries.
	*vm.Immortal, vm.vmState = immortal, next
	return nil
}
