package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"strings"
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

func TestZeroNullFaults(t *testing.T) {
	// Clearing nothing touches nothing, even at a null base.
	m := New()
	m.Zero(0, 0)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "mem: null dereference") {
			t.Errorf("Zero(0, 8) recovered %q, want a null dereference fault", msg)
		}
		if got := m.FootprintBytes(); got != 0 {
			t.Errorf("FootprintBytes after the fault = %d, want 0", got)
		}
	}()
	m.Zero(0, 8)
}

func TestMemoryVsShadowProperty(t *testing.T) {
	// Property: the sparse memory behaves like a flat map of words. The
	// address pool spans the last eight pages below DirectoryEnd, so the
	// stream reaches the directory's last entry.
	m := New()
	shadow := make(map[uint64]uint64)
	f := func(slot uint16, val uint64) bool {
		addr := DirectoryEnd - 8*PageSize + uint64(slot)*8
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
	if m.dir[dirPages-1] == nil {
		t.Error("pool did not reach the last directory page")
	}
}

// TestLanesAgainstSlowPath drives the page lane (Page, then the Page
// accessor of the width) with addresses drawn from a pool of null,
// unaligned, unmaterialized, last-page, DirectoryEnd and wild
// addresses, against a byte-wise shadow. Page must accept exactly the
// non-null, aligned accesses below DirectoryEnd on materialized pages,
// and the accessor then load or store what Read*/Write* would; a
// declining Page must leave the footprint and the directory as they
// were. After a decline the test takes the slow path, which must
// fault exactly on the addresses no program may touch and otherwise
// materialize the page.
func TestLanesAgainstSlowPath(t *testing.T) {
	pages := []Addr{0, 0x10_0000, 0x10_0000 + PageSize, 0x2000_0000, DirectoryEnd - PageSize, DirectoryEnd, 1 << 40, ^Addr(0) &^ pageMask}
	offsets := []Addr{0, 1, 2, 3, 4, 6, 8, 0x88, PageSize - 8, PageSize - 4, PageSize - 2, PageSize - 1}
	widths := []uint64{1, 2, 4, 8}
	rng := rand.New(rand.NewPCG(1, 2))
	m := New()
	shadow := make(map[Addr]byte)
	load := func(addr Addr, size uint64) (v uint64) {
		for i := size; i > 0; i-- {
			v = v<<8 | uint64(shadow[addr+i-1])
		}
		return v
	}
	loadPage := map[uint64]func(*Page, Addr) uint64{
		1: func(p *Page, a Addr) uint64 { return uint64(p.Load1(a)) },
		2: func(p *Page, a Addr) uint64 { return uint64(p.Load2(a)) },
		4: func(p *Page, a Addr) uint64 { return uint64(p.Load4(a)) },
		8: (*Page).Load8,
	}
	storePage := map[uint64]func(*Page, Addr, uint64){
		1: func(p *Page, a Addr, v uint64) { p.Store1(a, uint8(v)) },
		2: func(p *Page, a Addr, v uint64) { p.Store2(a, uint16(v)) },
		4: func(p *Page, a Addr, v uint64) { p.Store4(a, uint32(v)) },
		8: (*Page).Store8,
	}
	slowLoad := map[uint64]func(Addr) uint64{
		1: func(a Addr) uint64 { return uint64(m.Read1(a)) },
		2: func(a Addr) uint64 { return uint64(m.Read2(a)) },
		4: func(a Addr) uint64 { return uint64(m.Read4(a)) },
		8: m.Read8,
	}
	slowStore := map[uint64]func(Addr, uint64){
		1: func(a Addr, v uint64) { m.Write1(a, uint8(v)) },
		2: func(a Addr, v uint64) { m.Write2(a, uint16(v)) },
		4: func(a Addr, v uint64) { m.Write4(a, uint32(v)) },
		8: m.Write8,
	}
	faults := func(f func()) (faulted bool) {
		defer func() {
			if msg, _ := recover().(string); msg != "" {
				if !strings.HasPrefix(msg, "mem: ") {
					t.Fatalf("recovered %q, want a mem: fault", msg)
				}
				faulted = true
			}
		}()
		f()
		return false
	}
	accepted, declined := 0, 0
	for step := 0; step < 4000; step++ {
		size := widths[rng.IntN(len(widths))]
		addr := pages[rng.IntN(len(pages))] + offsets[rng.IntN(len(offsets))]
		if addr == pages[0] && rng.IntN(2) == 0 {
			addr = 0 // null itself, not only the first page
		}
		store := rng.IntN(2) == 0
		v := rng.Uint64() & (1<<(8*size) - 1)
		legal := addr != 0 && addr%size == 0 && addr < DirectoryEnd
		want := legal && m.dir[addr>>PageBits] != nil
		footprint, dir := m.FootprintBytes(), *m.dir

		p := m.Page(addr, size)
		if (p != nil) != want {
			t.Fatalf("step %d: Page(%#x, %d) accepted=%v, want %v", step, addr, size, p != nil, want)
		}
		if p != nil {
			accepted++
			if store {
				storePage[size](p, addr, v)
				for i := uint64(0); i < size; i++ {
					shadow[addr+i] = byte(v >> (8 * i))
				}
			} else if got := loadPage[size](p, addr); got != load(addr, size) {
				t.Fatalf("step %d: Load%d(%#x) = %#x, shadow holds %#x", step, size, addr, got, load(addr, size))
			}
			continue
		}
		declined++
		if m.FootprintBytes() != footprint || *m.dir != dir {
			t.Fatalf("step %d: Page declined width %d at %#x and changed the directory", step, size, addr)
		}
		// The fallback: the slow path faults exactly on illegal
		// addresses, and otherwise materializes the page.
		var got uint64
		faulted := faults(func() {
			if store {
				slowStore[size](addr, v)
			} else {
				got = slowLoad[size](addr)
			}
		})
		if faulted == legal {
			t.Fatalf("step %d: slow path of width %d at %#x faulted=%v, want %v", step, size, addr, faulted, !legal)
		}
		switch {
		case faulted:
			if m.FootprintBytes() != footprint {
				t.Fatalf("step %d: fault at %#x materialized a page", step, addr)
			}
		case store:
			for i := uint64(0); i < size; i++ {
				shadow[addr+i] = byte(v >> (8 * i))
			}
		case got != load(addr, size):
			t.Fatalf("step %d: Read%d(%#x) = %#x, shadow holds %#x", step, size, addr, got, load(addr, size))
		}
	}
	if accepted < 1000 || declined < 1000 {
		t.Errorf("Page accepted %d and declined %d accesses, want both at least 1000", accepted, declined)
	}
	if m.dir[dirPages-1] == nil {
		t.Error("pool did not reach the last directory page")
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
	// A wild pointer at or past DirectoryEnd faults like a null or
	// unaligned one, and leaves nothing materialized.
	m := New()
	for _, addr := range []Addr{DirectoryEnd, DirectoryEnd + PageSize, 1 << 40} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "mem: ") {
					t.Errorf("Write8(%#x) recovered %q, want a mem: fault", addr, msg)
				}
			}()
			m.Write8(addr, 0xFEED)
		}()
	}
	if got := m.FootprintBytes(); got != 0 {
		t.Errorf("FootprintBytes after the faults = %d, want 0", got)
	}
	// A blob naming a page beyond the directory is refused. The blob is
	// a page count, then per page its key and length-prefixed bytes.
	m.Write8(0x1000, 0xBEEF)
	st := m.Snapshot()
	st.Data = bytes.Clone(st.Data)
	binary.LittleEndian.PutUint64(st.Data[8:16], dirPages)
	if err := New().Restore(st); !errors.Is(err, snap.ErrDecode) {
		t.Errorf("Restore of a page beyond the directory = %v, want an error wrapping snap.ErrDecode", err)
	}
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

// BenchmarkMemoryLoad8 meters the page lane (Page, then Page.Load8)
// over the same walk; the difference to BenchmarkMemoryRead8 is the
// call the lane saves.
func BenchmarkMemoryLoad8(b *testing.B) {
	m := benchMemory()
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := benchAddr(i)
		sum += m.Page(a, 8).Load8(a)
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
