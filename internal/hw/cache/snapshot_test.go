package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"hpmvm/internal/snap"
)

// TestSnapshotEncodingPinned pins the hw/cache version-2 snapshot bytes
// themselves, not just their round trip: SHA-256 of Snapshot().Data
// after the TestAccessFingerprint stream, for the default P4 hierarchy,
// one with the instruction cache and one with the software-prefetch
// model. The stream crosses a functional stretch and a window reset, so
// warming-lane fills, both prefetched-line sets and partly empty arrays
// (the I-cache, the P4's L2) are all in the hashed bytes. A change of
// the in-memory layout must reproduce them through the codec.
func TestSnapshotEncodingPinned(t *testing.T) {
	const n = 200_000
	for _, tc := range []struct {
		name   string
		icache bool
		sw     bool
		want   string
	}{
		{"p4", false, false, "a15d4523573d103286a18c22a71b9f0e0148590a8171625921c48defa083c0ab"},
		{"p4-icache", true, false, "ac6952433342b60096e7888312b4ffafd76fa9e2c4fc871a768726534fcdfeb9"},
		{"p4-swprefetch", false, true, "843709bb8b8585d9584e7c9056c385ec1fa5549000d8410d716936343ec456d4"},
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

// TestRestoreRejectsUnencodableWays covers the way records (key, stamp,
// dirty) access never leaves behind: the arrays have no representation
// for them, so Restore refuses them instead of normalising them — on
// every blob it accepts, Snapshot returns the same bytes.
func TestRestoreRejectsUnencodableWays(t *testing.T) {
	h := New(tiny())
	h.Access(0x1000, 8, true) // L1 set 0 of 2: way 0 resident and dirty, way 1 empty
	good := h.Snapshot()
	// The blob opens with the L1 array: a way count, then 17-byte way
	// records (key 8, stamp 8, dirty 1).
	const way0, way1 = 8, 8 + 17
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"key outside its set", func(b []byte) { b[way0] ^= 1 }},
		{"empty way with a stamp", func(b []byte) { b[way1+8] = 1 }},
		{"empty way dirty", func(b []byte) { b[way1+16] = 1 }},
		{"resident way with stamp 0", func(b []byte) { clear(b[way0+8 : way0+16]) }},
		{"one key in two ways", func(b []byte) { copy(b[way1:way1+17], b[way0:way0+17]) }},
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

// TestEncodedLenExact holds the size the hierarchy's walk reserves to
// the bytes each tag array's walk writes.
func TestEncodedLenExact(t *testing.T) {
	h := New(DefaultP4())
	h.EnableICache(1024, 2)
	for _, sa := range []*setAssoc{&h.l1, &h.l2, &h.tlb, h.l1i} {
		st := snap.Encode("t", 1, func(c *snap.Codec) { sa.walk(c, "t") })
		if len(st.Data) != sa.encodedLen() {
			t.Errorf("a %d-way array writes %d bytes, encodedLen says %d", len(sa.keys), len(st.Data), sa.encodedLen())
		}
	}
}
