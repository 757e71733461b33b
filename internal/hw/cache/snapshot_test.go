package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"hpmvm/internal/snap"
)

// TestSnapshotEncodingPinned pins the hw/cache version-1 snapshot bytes
// themselves, not just their round trip: SHA-256 of Snapshot().Data
// after the TestAccessFingerprint stream, for the default P4 hierarchy,
// one with the instruction cache and one with the software-prefetch
// model. The stream crosses a functional stretch and a window reset, so
// warming-lane fills, both prefetched-line sets and partly empty arrays
// (the I-cache, the P4's L2) are all in the hashed bytes. The hashes
// were recorded from the array-of-structs tag arrays; a change of the
// in-memory layout must reproduce them through the codec.
func TestSnapshotEncodingPinned(t *testing.T) {
	const n = 200_000
	for _, tc := range []struct {
		name   string
		icache bool
		sw     bool
		want   string
	}{
		{"p4", false, false, "21b6054aef1646e8a025dfbec8b455d9d494caba28049af5dd3be0f275d3ade1"},
		{"p4-icache", true, false, "340ecdfdfb98d055229278588e81054e7ad9dcc8dfbbb34ac08ad55144d597cf"},
		{"p4-swprefetch", false, true, "004cc703e256e5b4823c318cf5c83dbebddefe872a9cd37187a4abbcbf13349e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := New(DefaultP4())
			cpu := &swCPU{user: true}
			if tc.icache {
				h.EnableICache(2048, 2)
			}
			if tc.sw {
				h.EnableSwPrefetch(cpu, 2)
				h.SetSwPrefetchSites(map[uint64]int64{0x500: 128, 0x508: -256})
			}
			next := fingerprintStream()
			for i := 0; i < n; i++ {
				switch i {
				case n / 4:
					h.SetFunctional(3)
				case n / 2:
					h.SetDetailed()
				case 3 * n / 4:
					h.ResetStats()
				}
				addr, write := next(i)
				cpu.pc = 0x500 + uint64(i%5)*8 // two of five accesses run at a site
				h.Access(addr, 8, write)
				if tc.icache && i&3 == 0 {
					// A walk over a code footprint four times the I-cache.
					h.IFetch(0x40_0000 + uint64(i*9)&(8192-1))
				}
			}
			// Four short ascending line runs, so the hardware prefetched-line
			// set is not empty in the hashed bytes either.
			for j := uint64(0); j < 8; j++ {
				h.Access(0x80_0000+(j&3)<<16+(j>>2)<<7, 8, false)
			}
			if h.prefetched.Len() == 0 || tc.sw && h.sw.prefetched.Len() == 0 ||
				tc.icache && (h.IStats().Misses == 0 || h.IStats().Misses == h.IStats().Fetches) {
				t.Fatalf("stream left a mechanism idle: %+v %+v", h.Stats(), h.IStats())
			}
			sum := sha256.Sum256(h.Snapshot().Data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("snapshot bytes drifted:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestRestoreRejectsUnencodableWays covers the codec's conversion from
// the version-1 way records (tag, valid, dirty, stamp) to the key, stamp
// and dirty rows: a record or trailer no encoder writes has no
// representation there, so Restore refuses it instead of normalising it
// — on every blob it accepts, Snapshot returns the same bytes.
func TestRestoreRejectsUnencodableWays(t *testing.T) {
	h := New(tiny())
	h.Access(0x1000, 8, true) // L1 set 0: way 0 resident and dirty, way 1 empty
	good := h.Snapshot()
	// The blob opens with the L1 array: a way count, 18-byte way records
	// (tag 8, valid 1, dirty 1, stamp 8), then stamp, access count, misses.
	const way0, way1, trailer = 8, 8 + 18, 8 + 4*18
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"access count differs from stamp", func(b []byte) { b[trailer+8]++ }},
		{"empty way with a tag", func(b []byte) { b[way1] = 1 }},
		{"empty way dirty", func(b []byte) { b[way1+9] = 1 }},
		{"empty way with a stamp", func(b []byte) { b[way1+10] = 1 }},
		{"resident way with stamp 0", func(b []byte) { clear(b[way0+10 : way0+18]) }},
		{"tag wider than an address", func(b []byte) { b[way0+7] = 0xff }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			bad.Data = bytes.Clone(good.Data)
			tc.mutate(bad.Data)
			if err := New(tiny()).Restore(bad); !errors.Is(err, snap.ErrDecode) {
				t.Errorf("Restore = %v, want an error wrapping snap.ErrDecode", err)
			}
		})
	}
	fresh := New(tiny())
	if err := fresh.Restore(good); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Snapshot().Data, good.Data) {
		t.Error("Snapshot after Restore differs from the restored blob")
	}
}
