package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestPfSetAgainstMap runs random Add/Delete/Contains/Clear sequences
// on a pfSet and on a Go map and requires the same Len, membership and
// sorted Keys after every step. Most keys are built to collide: each
// hashes into one of seven home slots, near the start and the end of
// every table size up to 1024 so that probe clusters run into each
// other and wrap around the table end; a few are random. There are
// enough of them to force growth. That exercises backward-shift
// deletion across collision chains, which the workloads rarely reach.
func TestPfSetAgainstMap(t *testing.T) {
	const phiInverse = 0xF1DE83E19937733D // pfHash's multiplier inverted mod 2^64
	if pfHash(phiInverse) != 1 {
		t.Fatal("phiInverse is not the inverse of pfHash's multiplier")
	}
	rng := rand.New(rand.NewPCG(3, 4))
	// A key whose hash has the top ten bits home lands in slot
	// home>>(10-log2(size)) of a table of size at most 1024.
	keyWithHome := func(home uint64) uint64 {
		return (home<<54 | rng.Uint64()>>10) * phiInverse
	}
	var pool []uint64
	for _, home := range []uint64{0, 1, 2, 5, 1020, 1022, 1023} {
		for i := 0; i < 80; i++ {
			pool = append(pool, keyWithHome(home))
		}
	}
	for i := 0; i < 80; i++ {
		pool = append(pool, rng.Uint64())
	}

	s := newPfSet()
	want := make(map[uint64]bool)
	grew := false
	for step := 0; step < 20000; step++ {
		k := pool[rng.IntN(len(pool))]
		switch op := rng.IntN(100); {
		case op < 50:
			s.Add(k)
			want[k] = true
		case op < 85:
			s.Delete(k)
			delete(want, k)
		case op < 99:
			if got := s.Contains(k); got != want[k] {
				t.Fatalf("step %d: Contains(%#x) = %v, want %v", step, k, got, want[k])
			}
		default:
			s.Clear()
			clear(want)
		}
		grew = grew || len(s.keys) > pfMinCap
		if s.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(want))
		}
		if step%16 == 0 {
			for _, k := range pool {
				if s.Contains(k) != want[k] {
					t.Fatalf("step %d: Contains(%#x) = %v, want %v", step, k, !want[k], want[k])
				}
			}
		}
		keys := s.Keys()
		slices.Sort(keys)
		wantKeys := make([]uint64, 0, len(want))
		for k := range want {
			wantKeys = append(wantKeys, k)
		}
		slices.Sort(wantKeys)
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("step %d: Keys = %#x, want %#x", step, keys, wantKeys)
		}
	}
	if !grew {
		t.Error("the sequence never grew the table")
	}
}
