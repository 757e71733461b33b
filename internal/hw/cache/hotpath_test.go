package cache

import (
	"fmt"
	"testing"
)

// recordingListener counts events so listener-attached paths are
// exercised by the fingerprint test and benchmarks.
type recordingListener struct {
	counts [NumEventKinds]uint64
}

func (l *recordingListener) HardwareEvent(kind EventKind, addr uint64) {
	l.counts[kind]++
}

// fingerprintStream returns the generator of the deterministic
// pseudo-random access pattern the pinned tests share: LCG-generated
// addresses over a few MB with mixed strides, loads and stores. Call it
// with i = 0, 1, 2, ... in order.
func fingerprintStream() func(i int) (addr uint64, write bool) {
	state := uint64(0x9e3779b97f4a7c15)
	seq := uint64(0)
	return func(i int) (uint64, bool) {
		state = state*6364136223846793005 + 1442695040888963407
		var addr uint64
		switch i & 3 {
		case 0, 1: // sequential walk: trains the stream prefetcher
			addr = (seq * 8) & (1<<22 - 1)
			seq++
		case 2: // random within 4 MB
			addr = (state >> 20) & (1<<22 - 1) &^ 7
		default: // strided
			addr = (uint64(i) * 4096) & (1<<24 - 1)
		}
		return addr, i&7 == 3
	}
}

// fingerprint drives fingerprintStream through a hierarchy and returns
// a digest of every observable counter. The expected strings below were
// recorded from the seed implementation of Access/lookup; any hot-path
// restructuring must reproduce them bit-for-bit.
func fingerprint(cfg Config, withListener bool, n int) string {
	h := New(cfg)
	var l recordingListener
	if withListener {
		h.SetListener(&l)
	}
	var cycles uint64
	next := fingerprintStream()
	for i := 0; i < n; i++ {
		addr, write := next(i)
		cycles += h.Access(addr, 8, write)
	}
	st := h.Stats()
	return fmt.Sprintf("cyc=%d acc=%d ld=%d st=%d l1=%d l2=%d tlb=%d wb=%d pf=%d pfh=%d stc=%d ev=%v",
		cycles, st.Accesses, st.Loads, st.Stores, st.L1Misses, st.L2Misses,
		st.TLBMisses, st.Writebacks, st.Prefetches, st.PrefetchHits, st.Cycles, l.counts)
}

// TestAccessFingerprint pins the exact simulation behavior of the
// memory hierarchy across hot-path refactors.
func TestAccessFingerprint(t *testing.T) {
	nopf := DefaultP4()
	nopf.PrefetchEnabled = false
	cases := []struct {
		name     string
		cfg      Config
		listener bool
		want     string
	}{
		// The trailing ev slot is EventL1IMiss: always zero here because
		// these runs never enable the instruction cache.
		{"p4-nolistener", DefaultP4(), false,
			"cyc=23956378 acc=200000 ld=175000 st=25000 l1=106016 l2=93564 tlb=97843 wb=49965 pf=7 pfh=6 stc=23956378 ev=[0 0 0 0]"},
		{"p4-listener", DefaultP4(), true,
			"cyc=23956378 acc=200000 ld=175000 st=25000 l1=106016 l2=93564 tlb=97843 wb=49965 pf=7 pfh=6 stc=23956378 ev=[106016 93564 97843 0]"},
		{"p4-noprefetch", nopf, true,
			"cyc=23955996 acc=200000 ld=175000 st=25000 l1=106017 l2=93562 tlb=97843 wb=49965 pf=0 pfh=0 stc=23955996 ev=[106017 93562 97843 0]"},
		{"tiny", tiny(), true,
			"cyc=25487262 acc=200000 ld=175000 st=25000 l1=121854 l2=99793 tlb=97843 wb=49967 pf=0 pfh=0 stc=25487262 ev=[121854 99793 97843 0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := fingerprint(tc.cfg, tc.listener, 200_000)
			if got != tc.want {
				t.Errorf("fingerprint drifted:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
