package hpmvm_test

import (
	"testing"

	"hpmvm/internal/bench"
	"hpmvm/internal/hw/cache"
)

// TestAblationPrefetchOffPinned holds the two prefetch-off cells of the
// ablation table (`-exp ablations`: db, hardware prefetcher disabled,
// base and co-allocation) to the numbers recorded in
// results/ablations.txt. They are the only experiment cells that run
// under a non-default cache geometry, which reaches the system through
// RunConfig.CacheConfig like every other run.
func TestAblationPrefetchOffPinned(t *testing.T) {
	b, err := bench.Lookup("db")
	if err != nil {
		t.Fatal(err)
	}
	nopf := cache.DefaultP4()
	nopf.PrefetchEnabled = false
	for _, tc := range []struct {
		name             string
		coalloc          bool
		cycles, l1Misses uint64
	}{
		{"prefetch off, base", false, 453933999, 2084703},
		{"prefetch off, coalloc", true, 418087919, 1813339},
	} {
		res, _, err := bench.Run(b, bench.RunConfig{Seed: 1, Coalloc: tc.coalloc, CacheConfig: &nopf})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Cycles != tc.cycles || res.Cache.L1Misses != tc.l1Misses {
			t.Errorf("%s: cycles %d, L1 misses %d; results/ablations.txt records %d, %d",
				tc.name, res.Cycles, res.Cache.L1Misses, tc.cycles, tc.l1Misses)
		}
	}
}
