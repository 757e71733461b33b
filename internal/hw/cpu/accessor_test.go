package cpu

import (
	"math/rand"
	"testing"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/mem"
)

// TestTimedAccessorsMatchAccess holds the timed accessors, which try the
// lane at c.PC before Access, to a twin hierarchy driven by Access
// alone, both under the software-prefetch model and reading the PC and
// the privilege mode from the same CPU. The accesses run at installed
// sites, at a PC that shares a site's flag and at PCs that are no site,
// in user and kernel mode, in the detailed and the warming lane, with
// the site table changing under them: every access must charge what
// Access alone charges and load what the twin's memory holds, and the
// Stats (SwPrefetches included) and the hierarchy snapshot must match.
func TestTimedAccessorsMatchAccess(t *testing.T) {
	cfg := cache.DefaultP4()
	cfg.L1Size = 4 * 1024
	c := New(mem.New(), cache.New(cfg), DefaultConfig())
	twin, twinMem := cache.New(cfg), mem.New()
	c.Hier.EnableSwPrefetch(c, 2)
	twin.EnableSwPrefetch(c, 2)

	base := c.Config().CodeBase
	// base+4*4096 shares base's site flag; base+8 and base+12 are no
	// site in any table below.
	pcs := []uint64{base, base + 4, base + 4*4096, base + 8, base + 12}
	tables := []map[uint64]int64{
		{base: 128, base + 4: -256},
		{base + 4: 384},
		nil,
	}
	setSites := func(sites map[uint64]int64) {
		c.Hier.SetSwPrefetchSites(sites)
		twin.SetSwPrefetchSites(sites)
	}
	setSites(tables[0])

	// A hot 2 KB region the lane serves, inside sixteen backing pages
	// that the first touches materialize: each accessor's fallback to
	// Read*/Write* runs.
	const heap = 0x0100_0000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60_000; i++ {
		switch op := rng.Intn(1000); {
		case op < 2:
			setSites(tables[rng.Intn(len(tables))])
		case op < 8:
			if c.Hier.Functional() {
				c.Hier.SetDetailed()
				twin.SetDetailed()
			} else {
				c.Hier.SetFunctional(3)
				twin.SetFunctional(3)
			}
		case op < 20:
			c.SetUserMode(!c.UserMode())
		}
		c.PC = pcs[rng.Intn(len(pcs))]
		addr := heap + uint64(rng.Intn(2048/8))*8
		if rng.Intn(4) == 0 {
			addr = heap + uint64(rng.Intn(16*mem.PageSize/8))*8
		}
		write := rng.Intn(2) == 0
		size := 8
		if rng.Intn(2) == 0 {
			size = 4
		}
		v := rng.Uint64()

		want := twin.Access(addr, size, write)
		before := c.cycles
		switch {
		case size == 8 && write:
			c.StoreWord(addr, v)
			twinMem.Write8(addr, v)
		case size == 8:
			if got, want := c.LoadWord(addr), twinMem.Read8(addr); got != want {
				t.Fatalf("access %d: LoadWord(%#x) = %#x, want %#x", i, addr, got, want)
			}
		case write:
			c.StoreHalf(addr, uint32(v))
			twinMem.Write4(addr, uint32(v))
		default:
			if got, want := c.LoadHalf(addr), twinMem.Read4(addr); got != want {
				t.Fatalf("access %d: LoadHalf(%#x) = %#x, want %#x", i, addr, got, want)
			}
		}
		if got := c.cycles - before; got != want {
			t.Fatalf("access %d (%#x, %d bytes, write=%v, pc %#x, user=%v): charged %d, Access alone %d",
				i, addr, size, write, c.PC, c.UserMode(), got, want)
		}
		if i%1000 == 999 {
			if got, want := c.Hier.Stats(), twin.Stats(); got != want {
				t.Fatalf("access %d: stats %+v, Access alone %+v", i, got, want)
			}
			if string(c.Hier.Snapshot().Data) != string(twin.Snapshot().Data) {
				t.Fatalf("access %d: hierarchy snapshot differs from Access alone", i)
			}
		}
	}
	if twin.Stats().SwPrefetches == 0 {
		t.Fatal("no access issued a software prefetch")
	}
}
