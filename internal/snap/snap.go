// Package snap defines the Checkpointable contract every stateful
// layer of the simulated system implements: a component serializes its
// mutable state into a versioned, deterministic binary blob
// (ComponentState) and can later restore itself from one. The contract
// is the substrate of core.System.Snapshot/Restore — checkpointing a
// whole simulation is the composition of its components' states.
//
// Design rules the contract imposes (DESIGN.md §10):
//
//   - Snapshot captures only *mutable* state. Configuration and wiring
//     (geometry, cost models, callbacks, observer hooks) are rebuilt by
//     constructing a fresh system from the same Options; a snapshot
//     restored under a different configuration is rejected at the
//     System level by a fingerprint check before any component sees it.
//   - Encoding is deterministic: map contents are serialized in sorted
//     key order, floats as IEEE-754 bit patterns, everything
//     little-endian and length-prefixed. Two snapshots of identical
//     simulator states are byte-identical.
//   - Every ComponentState carries the component name and a format
//     version; Restore fails (wrapping ErrDecode) on a name, version or
//     geometry mismatch rather than silently corrupting state.
//
// The package is dependency-free so every layer (hw, kernel, gc, vm,
// monitor, coalloc, obs) can import it without cycles.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ComponentState is one component's serialized mutable state.
type ComponentState struct {
	// Component names the producing component ("hw/cpu", "gc/genms", …).
	Component string
	// Version is the component's encoding format version; bumped when
	// the layout of Data changes incompatibly.
	Version uint32
	// Data is the deterministic binary encoding of the mutable state.
	Data []byte
}

// Checkpointable is implemented by every stateful layer of the
// simulated system. Snapshot must not perturb the component (no
// simulated cycles, no state changes); Restore overwrites the
// component's mutable state and fails without partial effects on a
// recognizably foreign or corrupt state.
type Checkpointable interface {
	Snapshot() ComponentState
	Restore(ComponentState) error
}

// ErrDecode is the sentinel wrapped by every snapshot decoding failure
// (unknown component, version skew, truncated or inconsistent data).
var ErrDecode = errors.New("snapshot decode error")

// Check validates a ComponentState header against the expected
// component name and version, wrapping ErrDecode on mismatch. Every
// Restore implementation calls it first.
func Check(st ComponentState, component string, version uint32) error {
	if st.Component != component {
		return fmt.Errorf("snap: %w: state for %q restored into %q", ErrDecode, st.Component, component)
	}
	if st.Version != version {
		return fmt.Errorf("snap: %w: %s version %d, want %d", ErrDecode, component, st.Version, version)
	}
	return nil
}

// Writer builds a deterministic little-endian binary encoding. The
// zero Writer is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded data.
func (w *Writer) Bytes() []byte { return w.buf }

// U64 appends one unsigned 64-bit word.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// U32 appends one unsigned 32-bit word.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// I64 appends one signed 64-bit word.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends one boolean as a single byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends one float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes8 appends a length-prefixed byte slice.
func (w *Writer) Bytes8(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes8([]byte(s)) }

// State appends a nested ComponentState (name, version, data).
func (w *Writer) State(st ComponentState) {
	w.String(st.Component)
	w.U32(st.Version)
	w.Bytes8(st.Data)
}

// Reader decodes data produced by Writer. Decoding errors are sticky:
// after the first failure every accessor returns a zero value and Err
// reports the failure, so decode sequences can run unchecked and
// validate once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Close verifies the reader consumed its input exactly and had no
// decoding failure.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %w: %d trailing bytes", ErrDecode, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: %w: %s", ErrDecode, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads one unsigned 64-bit word.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads one unsigned 32-bit word.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads one signed 64-bit word.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads one boolean.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d", b[0])
		return false
	}
}

// F64 reads one float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads an element count whose elements occupy at least elemSize
// encoded bytes each, failing when count × elemSize exceeds the unread
// input. Decoders size their allocations from it, so a corrupt count
// yields ErrDecode instead of an out-of-range make; it also bounds the
// decode loop, which needs no per-iteration Err check.
func (r *Reader) Count(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining())/uint64(elemSize) {
		r.fail("count %d × %d bytes exceeds remaining %d bytes", n, elemSize, r.Remaining())
		return 0
	}
	return int(n)
}

// Bytes8 reads a length-prefixed byte slice. The returned slice
// aliases the reader's buffer; copy it if it must outlive the input.
func (r *Reader) Bytes8() []byte { return r.take(r.Count(1)) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes8()) }

// State reads a nested ComponentState.
func (r *Reader) State() ComponentState {
	var st ComponentState
	st.Component = r.String()
	st.Version = r.U32()
	st.Data = append([]byte(nil), r.Bytes8()...)
	return st
}
