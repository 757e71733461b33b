package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"hpmvm/internal/snap"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write8(0x1000, 0x1122334455667788)
	if got := m.Read8(0x1000); got != 0x1122334455667788 {
		t.Fatalf("Read8 = %#x", got)
	}
	m.Write4(0x2000, 0xCAFEBABE)
	if got := m.Read4(0x2000); got != 0xCAFEBABE {
		t.Fatalf("Read4 = %#x", got)
	}
	m.Write2(0x3000, 0xBEEF)
	if got := m.Read2(0x3000); got != 0xBEEF {
		t.Fatalf("Read2 = %#x", got)
	}
	m.Write1(0x4001, 0xAB)
	if got := m.Read1(0x4001); got != 0xAB {
		t.Fatalf("Read1 = %#x", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Write8(0x1000, 0x0807060504030201)
	for i := uint64(0); i < 8; i++ {
		if got := m.Read1(0x1000 + i); got != uint8(i+1) {
			t.Fatalf("byte %d = %#x, want %#x", i, got, i+1)
		}
	}
	// Sub-word reads see the same bytes.
	if got := m.Read4(0x1004); got != 0x08070605 {
		t.Fatalf("Read4 upper half = %#x", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	// Bytes spanning a backing-page boundary via Zero and Read1.
	base := uint64(PageSize - 4)
	for i := uint64(0); i < 8; i++ {
		m.Write1(base+i, uint8(0x10+i))
	}
	for i := uint64(0); i < 8; i++ {
		if got := m.Read1(base + i); got != uint8(0x10+i) {
			t.Fatalf("cross-page byte %d = %#x", i, got)
		}
	}
}

func TestAlignmentChecks(t *testing.T) {
	m := New()
	for _, fn := range []func(){
		func() { m.Read8(0x1004) },
		func() { m.Write8(0x1001, 1) },
		func() { m.Read4(0x1002) },
		func() { m.Read2(0x1001) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on unaligned access")
				}
			}()
			fn()
		}()
	}
}

func TestNullDereferencePanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on null read")
		}
	}()
	m.Read8(0)
}

func TestZero(t *testing.T) {
	m := New()
	for i := uint64(0); i < 64; i += 8 {
		m.Write8(0x1000+i, ^uint64(0))
	}
	m.Zero(0x1008, 40)
	if m.Read8(0x1000) != ^uint64(0) {
		t.Error("Zero clobbered preceding word")
	}
	for i := uint64(0x1008); i < 0x1030; i += 8 {
		if m.Read8(i) != 0 {
			t.Errorf("word at %#x not zeroed", i)
		}
	}
	if m.Read8(0x1030) != ^uint64(0) {
		t.Error("Zero clobbered following word")
	}
	// Zero across a page boundary.
	m.Write8(PageSize-8, ^uint64(0))
	m.Write8(PageSize, ^uint64(0))
	m.Zero(PageSize-8, 16)
	if m.Read8(PageSize-8) != 0 || m.Read8(PageSize) != 0 {
		t.Error("cross-page Zero failed")
	}
}

func TestMemoryVsShadowProperty(t *testing.T) {
	// Property: the sparse memory behaves like a flat map of words. The
	// address pool straddles DirectoryEnd, so both translations (the
	// directory below it, the far map above) serve the same stream.
	m := New()
	shadow := make(map[uint64]uint64)
	f := func(slot uint16, val uint64) bool {
		addr := DirectoryEnd - 4*PageSize + uint64(slot)*8
		m.Write8(addr, val)
		shadow[addr] = val
		// Check a few previously written slots too.
		for a, v := range shadow {
			if m.Read8(a) != v {
				return false
			}
			break
		}
		return m.Read8(addr) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if len(m.far) == 0 || m.dir[dirPages-1] == nil {
		t.Errorf("pool did not straddle the directory boundary: %d far pages, last directory entry %v",
			len(m.far), m.dir[dirPages-1])
	}
}

func TestRestoreRebuildsTranslation(t *testing.T) {
	const old, added = 0x1000_0000, 0x2000_0000
	m := New()
	m.Write8(old, 0xA1)
	st := m.Snapshot()
	footprint := m.FootprintBytes()

	// Diverge: overwrite a snapshotted page and materialize a new one,
	// so both are live in the translation Restore has to replace.
	m.Write8(old, 0xB2)
	m.Write8(added, 0xC3)
	if err := m.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := m.Read8(old); got != 0xA1 {
		t.Errorf("restored word = %#x, want the snapshot's 0xA1", got)
	}
	if got := m.FootprintBytes(); got != footprint {
		t.Errorf("FootprintBytes after Restore = %d, want the origin's %d", got, footprint)
	}
	// The page the snapshot never had is gone: touching it again
	// materializes a fresh zeroed page and grows the footprint.
	if got := m.Read8(added); got != 0 {
		t.Errorf("dropped page reads %#x after Restore, want 0", got)
	}
	if got := m.FootprintBytes(); got != footprint+PageSize {
		t.Errorf("FootprintBytes after rematerializing = %d, want %d", got, footprint+PageSize)
	}
}

func TestBeyondDirectory(t *testing.T) {
	// A wild pointer far past the layout still materializes a page,
	// round-trips, and snapshots after every directory page.
	const wild = uint64(1) << 40
	m := New()
	m.Write8(wild, 0xFEED)
	m.Write8(0x1000, 0xBEEF)
	if got := m.Read8(wild); got != 0xFEED {
		t.Fatalf("Read8(1<<40) = %#x", got)
	}
	if got := m.FootprintBytes(); got != 2*PageSize {
		t.Errorf("FootprintBytes = %d, want %d", got, 2*PageSize)
	}
	st := m.Snapshot()
	r := New()
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if r.Read8(wild) != 0xFEED || r.Read8(0x1000) != 0xBEEF {
		t.Errorf("restored words = %#x, %#x", r.Read8(wild), r.Read8(0x1000))
	}
	if again := r.Snapshot(); !bytes.Equal(again.Data, st.Data) {
		t.Error("snapshot of the restored memory differs from the origin's")
	}
	// Ascending key order: page 0 first, then page 1<<40>>PageBits.
	sr := snap.NewReader(st.Data)
	if n := sr.U64(); n != 2 {
		t.Fatalf("snapshot holds %d pages, want 2", n)
	}
	if k := sr.U64(); k != 0 {
		t.Errorf("first snapshot page = %#x, want 0", k)
	}
	sr.Bytes8()
	if k := sr.U64(); k != wild>>PageBits {
		t.Errorf("second snapshot page = %#x, want %#x", k, wild>>PageBits)
	}
}

func TestRegionMap(t *testing.T) {
	var mm Map
	mm.AddRegion(Region{Name: "a", Start: 0x1000, End: 0x2000})
	mm.AddRegion(Region{Name: "b", Start: 0x3000, End: 0x4000})
	if r := mm.Find(0x1800); r == nil || r.Name != "a" {
		t.Errorf("Find(0x1800) = %v", r)
	}
	if r := mm.Find(0x2800); r != nil {
		t.Errorf("Find in gap = %v", r)
	}
	if len(mm.Regions()) != 2 {
		t.Errorf("Regions = %d", len(mm.Regions()))
	}
	if (Region{Start: 0x1000, End: 0x2000}).Size() != 0x1000 {
		t.Error("Size wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overlapping region")
		}
	}()
	mm.AddRegion(Region{Name: "c", Start: 0x1800, End: 0x2800})
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.FootprintBytes() != 0 {
		t.Error("fresh memory has footprint")
	}
	m.Write8(0x1000, 1)
	m.Write8(0x1000+PageSize, 1)
	if got := m.FootprintBytes(); got != 2*PageSize {
		t.Errorf("FootprintBytes = %d, want %d", got, 2*PageSize)
	}
}

// The benchmarks walk benchPages pages round-robin, one word per page
// per step: interleaved stack, nursery, mature and LOS pages, the
// pattern a small translation memo cannot hold.
const (
	benchPages = 32
	benchBase  = 0x1000_0000
)

func benchMemory() *Memory {
	m := New()
	for p := uint64(0); p < benchPages; p++ {
		m.Write8(benchBase+p*PageSize, p)
	}
	return m
}

func benchAddr(i int) Addr {
	return benchBase + uint64(i%benchPages)*PageSize + uint64(i&0xff)*8
}

func BenchmarkMemoryRead8(b *testing.B) {
	m := benchMemory()
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += m.Read8(benchAddr(i))
	}
	benchSink = sum
}

func BenchmarkMemoryWrite8(b *testing.B) {
	m := benchMemory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write8(benchAddr(i), uint64(i))
	}
}

var benchSink uint64
