package opt

import (
	"fmt"
	"testing"
)

// detector builds a bare SwPrefetch with just the pieces observe()
// touches — the detector is pure state-machine code, so the table
// tests drive it directly without a VM or monitor.
func detector(cfg SwPrefetchConfig) *SwPrefetch {
	return &SwPrefetch{cfg: cfg.WithDefaults(), streams: make(map[uint64]*swStream)}
}

// feed replays a delta sequence as sampled miss addresses at one PC.
func feed(s *SwPrefetch, pc, start uint64, deltas []int64) {
	addr := start
	s.observe(pc, addr, 1)
	for _, d := range deltas {
		addr = uint64(int64(addr) + d)
		s.observe(pc, addr, 1)
	}
}

func TestStrideDetectorTable(t *testing.T) {
	line := int64(128)
	cases := []struct {
		name       string
		deltas     []int64
		wantStride int64
		confident  bool // conf >= default MinConfidence (3)
	}{
		{"exact positive", []int64{line, line, line, line}, line, true},
		{"exact negative", []int64{-line, -line, -line, -line}, -line, true},
		// Randomized-interval jitter: consecutive samples at one PC are
		// k strides apart for varying k. Multiples of a trained stride
		// count as confirmation.
		{"jitter multiples", []int64{2 * line, 4 * line, 2 * line, 6 * line}, 2 * line, true},
		// A first delta of k×stride refines downward when a smaller
		// consistent delta arrives.
		{"refine to finer", []int64{3 * line, line, line, line}, line, true},
		// Neither delta divides the other but both share the true
		// stride: gcd retraining recovers it.
		{"gcd recovery", []int64{3 * line, 5 * line, 2 * line, 4 * line, 7 * line}, line, true},
		{"negative jitter", []int64{-3 * line, -6 * line, -3 * line, -9 * line}, -3 * line, true},
		// Pointer-chasing noise must never gain confidence: deltas with
		// no common large divisor keep resetting the trained stride.
		{"irregular", []int64{13063, -7529, 30011, -1723, 9341, -20353}, 0, false},
		// A direction flip retrains from scratch.
		{"direction flip", []int64{line, line, -line, line}, 0, false},
		{"zero deltas ignored", []int64{line, 0, line, 0, line}, line, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := detector(SwPrefetchConfig{})
			feed(s, 0x1000, 0x5000_0000, tc.deltas)
			st := s.streams[0x1000]
			if st == nil {
				t.Fatal("stream not created")
			}
			got := st.conf >= s.cfg.MinConfidence
			if got != tc.confident {
				t.Fatalf("confident = %v (conf %d, stride %d), want %v", got, st.conf, st.stride, tc.confident)
			}
			if tc.confident && st.stride != tc.wantStride {
				t.Fatalf("stride = %d, want %d", st.stride, tc.wantStride)
			}
		})
	}
}

// TestStrideDetectorRandomizedInterval replays the exact shape the
// PEBS unit's randomized interval bits produce: a fixed underlying
// access stride sampled at pseudo-randomly varying intervals, so
// observed deltas are irregular multiples of the true stride. The
// detector must converge on the true stride and stay confident.
func TestStrideDetectorRandomizedInterval(t *testing.T) {
	s := detector(SwPrefetchConfig{})
	line := int64(128)
	// Multipliers from a fixed LCG — deterministic, deliberately
	// non-uniform, always >= 1 (an interval never skips backwards).
	seed := uint64(0x9E3779B97F4A7C15)
	addr := uint64(0x5000_0000)
	s.observe(0x2000, addr, 7)
	for i := 0; i < 64; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		k := int64(seed%7) + 1
		addr = uint64(int64(addr) + k*line)
		s.observe(0x2000, addr, 7)
	}
	st := s.streams[0x2000]
	if st.conf < s.cfg.MinConfidence {
		t.Fatalf("conf = %d after 64 jittered samples, want >= %d", st.conf, s.cfg.MinConfidence)
	}
	if st.stride%line != 0 || st.stride <= 0 {
		t.Fatalf("stride = %d, want a positive multiple of %d", st.stride, line)
	}
}

// TestStrideDetectorEviction pins the bounded-table behaviour under PC
// aliasing pressure: when more PCs miss than the table holds, the
// least-seen stream is evicted and hot streams survive.
func TestStrideDetectorEviction(t *testing.T) {
	s := detector(SwPrefetchConfig{MaxStreams: 4})
	line := int64(128)
	// Two hot strided PCs accumulate many samples.
	feed(s, 0xA0, 0x5000_0000, []int64{line, line, line, line, line})
	feed(s, 0xB0, 0x6000_0000, []int64{line, line, line, line})
	// A crowd of cold PCs (one sample each) churns through the table.
	for i := 0; i < 32; i++ {
		s.observe(uint64(0xC00+i*4), uint64(0x7000_0000+i*4096), 2)
	}
	if len(s.streams) > 4 {
		t.Fatalf("table grew to %d streams, cap 4", len(s.streams))
	}
	if s.streams[0xA0] == nil || s.streams[0xB0] == nil {
		t.Fatalf("hot streams evicted by one-sample PCs (have %d streams)", len(s.streams))
	}
	if s.streams[0xA0].conf < s.cfg.MinConfidence {
		t.Fatalf("hot stream lost confidence: %d", s.streams[0xA0].conf)
	}
}

// TestStrideDetectorEvictionDeterministic pins that eviction picks the
// same victim regardless of map insertion order (least seen, then
// lowest PC) — snapshot determinism depends on it.
func TestStrideDetectorEvictionDeterministic(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		s := detector(SwPrefetchConfig{MaxStreams: 3})
		// Insertion order varies by trial; seen counts do not.
		pcs := []uint64{0x10, 0x20, 0x30}
		for i := range pcs {
			pc := pcs[(i+trial)%3]
			s.observe(pc, 0x5000_0000, 1)
			s.observe(pc, 0x5000_0080, 1) // seen=2 each
		}
		s.observe(0x40, 0x6000_0000, 1) // forces one eviction
		if s.streams[0x10] != nil {
			t.Fatalf("trial %d: tie-break should evict lowest PC 0x10, table %v", trial, keysOf(s.streams))
		}
		if s.streams[0x20] == nil || s.streams[0x30] == nil || s.streams[0x40] == nil {
			t.Fatalf("trial %d: wrong victim, table %v", trial, keysOf(s.streams))
		}
	}
}

func keysOf(m map[uint64]*swStream) []string {
	var out []string
	for k := range m {
		out = append(out, fmt.Sprintf("%#x", k))
	}
	return out
}

// TestSwPrefetchConfigDefaults pins the zero-value resolution rules:
// meaningful zeros survive, everything else resolves.
func TestSwPrefetchConfigDefaults(t *testing.T) {
	got := SwPrefetchConfig{}.WithDefaults()
	want := DefaultSwPrefetchConfig()
	want.MinSamples = 0 // meaningful zero: inject immediately
	if got != want {
		t.Fatalf("WithDefaults() = %+v, want %+v", got, want)
	}
	// Idempotent: resolving twice changes nothing.
	if again := got.WithDefaults(); again != got {
		t.Fatalf("WithDefaults not idempotent: %+v -> %+v", got, again)
	}
	// Explicit values survive.
	custom := SwPrefetchConfig{MinConfidence: 7, Distance: 5, BadInjectAtCycle: 99, Passive: true}.WithDefaults()
	if custom.MinConfidence != 7 || custom.Distance != 5 || custom.BadInjectAtCycle != 99 || !custom.Passive {
		t.Fatalf("explicit fields clobbered: %+v", custom)
	}
}
