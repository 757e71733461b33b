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
//   - One walk per component. A component states its byte layout once,
//     as a walk(*Codec) method whose calls are the wire order; Snapshot
//     is Encode over it and Restore is Decode over the same walk, so the
//     two directions cannot drift apart.
//   - Restore has no partial effects. A blob is untrusted input: Decode
//     checks the component name and version, every count against the
//     unread input, every value both sides must agree on (Same) and
//     every component check (Check), wrapping ErrDecode; Restore binds
//     the walk to scratch state — a copy of the component, or fresh
//     arrays — and commits it only when Decode returns nil.
//
// Five places convert between the wire form and a different memory form
// and spell both directions out, using the Codec for their flat parts
// only: hw/cache's tag arrays (version-1 way records ↔ key/stamp/dirty
// rows), hw/mem (sorted page list ↔ page directory + far map), obs (a
// mutex, atomics and a ring, walked as a private wire struct),
// vm/runtime (the recompile log is validated and replayed, not stored)
// and core's container (magic and version gate the rest of the parse).
//
// The package is dependency-free so every layer (hw, kernel, gc, vm,
// monitor, coalloc, obs) can import it without cycles.
package snap

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
// simulated cycles, no state changes). Restore overwrites the
// component's mutable state, or fails with an error wrapping ErrDecode
// and leaves the component exactly as it was: Snapshot before and after
// a failed Restore returns the same bytes.
type Checkpointable interface {
	Snapshot() ComponentState
	Restore(ComponentState) error
}

// ErrDecode is the sentinel wrapped by every snapshot decoding failure
// (unknown component, version skew, truncated or inconsistent data).
var ErrDecode = errors.New("snapshot decode error")

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
	if left := len(r.buf) - r.off; n > uint64(left)/uint64(elemSize) {
		r.fail("count %d × %d bytes exceeds remaining %d bytes", n, elemSize, left)
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

// Codec walks a component's mutable state in one fixed order and either
// writes it (W set, by Encode) or reads it back (R set, by Decode)
// through the same calls, so a component states its byte layout once,
// as a walk(*Codec) method. The walk is explicit: the order of its
// calls is the wire order. Code that converts between a wire form and a
// different memory form reaches the two ends directly and branches on
// R != nil.
type Codec struct {
	W *Writer
	R *Reader
}

// Encode runs walk over a fresh Writer and wraps the bytes it wrote.
func Encode(component string, version uint32, walk func(*Codec)) ComponentState {
	c := Codec{W: new(Writer)}
	walk(&c)
	return ComponentState{Component: component, Version: version, Data: c.W.Bytes()}
}

// Decode checks st's component name and version, runs walk over its
// data and requires the walk to have consumed the data exactly and
// failed no check. The walk writes into whatever it was bound to as it
// goes, so Restore binds it to scratch state and commits that only when
// Decode returns nil.
func Decode(st ComponentState, component string, version uint32, walk func(*Codec)) error {
	if st.Component != component {
		return fmt.Errorf("snap: %w: state for %q restored into %q", ErrDecode, st.Component, component)
	}
	if st.Version != version {
		return fmt.Errorf("snap: %w: %s version %d, want %d", ErrDecode, component, st.Version, version)
	}
	c := Codec{R: NewReader(st.Data)}
	walk(&c)
	if err := c.R.Close(); err != nil {
		return fmt.Errorf("%s: %w", component, err)
	}
	return nil
}

// word walks one value through the matching Reader/Writer pair.
func word[T any](c *Codec, p *T, read func(*Reader) T, write func(*Writer, T)) {
	if c.R != nil {
		*p = read(c.R)
	} else {
		write(c.W, *p)
	}
}

// U64 walks one unsigned 64-bit word.
func (c *Codec) U64(p *uint64) { word(c, p, (*Reader).U64, (*Writer).U64) }

// I64 walks one signed 64-bit word.
func (c *Codec) I64(p *int64) { word(c, p, (*Reader).I64, (*Writer).I64) }

// Bool walks one boolean.
func (c *Codec) Bool(p *bool) { word(c, p, (*Reader).Bool, (*Writer).Bool) }

// F64 walks one float64.
func (c *Codec) F64(p *float64) { word(c, p, (*Reader).F64, (*Writer).F64) }

// String walks one length-prefixed string.
func (c *Codec) String(p *string) { word(c, p, (*Reader).String, (*Writer).String) }

// Int walks an int, enum or narrower integer field as one 64-bit word,
// sign- or zero-extended as its type says.
func Int[T ~int | ~int32 | ~uint | ~uint8](c *Codec, p *T) {
	if c.R != nil {
		*p = T(c.R.I64())
	} else {
		c.W.I64(int64(*p))
	}
}

// Same walks a word both sides must agree on — a region bound, an array
// length, the installed-code length: written when encoding, compared
// with the receiver's own v when decoding.
func (c *Codec) Same(v uint64, what string) {
	if c.R == nil {
		c.W.U64(v)
	} else if got := c.R.U64(); got != v {
		c.Check(false, "%s is %#x here, %#x in the snapshot", what, v, got)
	}
}

// Check, when decoding, records a failure wrapping ErrDecode unless ok,
// and reports whether nothing has failed so far — which is when ids
// just read may be resolved into pointers. Encoding, it reports false.
func (c *Codec) Check(ok bool, format string, args ...any) bool {
	if c.R == nil {
		return false
	}
	if !ok {
		c.R.fail(format, args...)
	}
	return c.R.err == nil
}

// minSize is the encoded size of a zero element — empty strings, slices
// and maps, absent optional sections — which is the least any element
// occupies: the bound Reader.Count holds a decoded count to.
func minSize(zero func(*Codec)) int {
	sizer := Codec{W: new(Writer)}
	zero(&sizer)
	return max(len(sizer.W.buf), 1)
}

// Slice walks a length-prefixed sequence, element by element. Decoding
// replaces *s with a fresh slice of the (bounded) decoded length.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	if c.R == nil {
		c.W.U64(uint64(len(*s)))
	} else {
		*s = make([]T, c.R.Count(minSize(func(z *Codec) { elem(z, new(T)) })))
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Map walks a length-prefixed map in ascending key order; elem walks
// one entry through copies of its key and value. Decoding replaces *m
// with a fresh map.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, elem func(*Codec, *K, *V)) {
	if c.R == nil {
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.W.U64(uint64(len(keys)))
		for _, k := range keys {
			v := (*m)[k]
			elem(c, &k, &v)
		}
		return
	}
	n := c.R.Count(minSize(func(z *Codec) { elem(z, new(K), new(V)) }))
	*m = make(map[K]V, n)
	for i := 0; i < n; i++ {
		var k K
		var v V
		elem(c, &k, &v)
		(*m)[k] = v
	}
}

// MapPtr is Map for pointer-valued maps: elem gets the pointed-to
// value, freshly allocated when decoding.
func MapPtr[K cmp.Ordered, V any](c *Codec, m *map[K]*V, elem func(*Codec, *K, *V)) {
	Map(c, m, func(c *Codec, k *K, v **V) {
		if *v == nil {
			*v = new(V)
		}
		elem(c, k, *v)
	})
}

// Pair is the entry walk of a map whose key and value are one word each.
func Pair[K, V any](key func(*Codec, *K), val func(*Codec, *V)) func(*Codec, *K, *V) {
	return func(c *Codec, k *K, v *V) {
		key(c, k)
		val(c, v)
	}
}

// Scratch returns a shallow copy of *p for a Restore to walk in place
// of the live value.
func Scratch[T any](p *T) *T {
	v := *p
	return &v
}
