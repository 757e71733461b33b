package main

import (
	"sort"
	"time"

	"hpmvm/internal/stats"
)

// Drift correction. The sandbox this benchmark runs in changes speed under
// it: the same loop reads ±15 % from one 40 ms stretch to the next and
// drifts by tens of per cent over minutes (no steal time is reported; the
// instructions simply run slower). refslice is a fixed piece of pure-Go
// work; reference slices are taken around and inside every timed unit, and
// the unit's reported time is its raw time scaled by how slow the box was
// while it ran:
//
//	corrected = raw × refNominalMS / mean(reference slices of the unit)
//
// A slice has two halves because the box has two ways of being slow. When
// the core itself slows down, simulated runs follow a cache-resident loop
// (256 KB: correlation 0.8) and not a 4 MB one (0.2–0.4); when neighbours
// fight over the last-level cache it is the other way round. Over five
// minutes of the second kind the spread of a four-program pass was 12.2 %
// raw, 11.3 % over the small loop alone, 7.7 % over the large one, 7.8 %
// over their sum; only the sum helped in both regimes.
//
// refslice is FROZEN. Editing the kernel, the sizes, the iteration counts or
// refNominalMS makes every recorded number incomparable; bump refVersion
// and re-measure the baseline if it ever has to change.
const (
	refVersion    = 1
	refNominalMS  = 7.0
	refSmallWords = 32 * 1024  // 256 KB of uint64: stays in the core's own cache
	refLargeWords = 512 * 1024 // 4 MB: reaches the shared cache
	refSmallIters = 1_700_000
	refLargeIters = 650_000
)

// refKernel owns the reference working sets and every slice taken on them.
type refKernel struct {
	small  []uint64
	large  []uint64
	state  uint64
	slices []float64 // ms
}

func newRefKernel() *refKernel {
	r := &refKernel{
		small: make([]uint64, refSmallWords),
		large: make([]uint64, refLargeWords),
		state: 0x9E3779B97F4A7C15,
	}
	for i := range r.small {
		r.small[i] = uint64(i) * 0xBF58476D1CE4E5B9
	}
	for i := range r.large {
		r.large[i] = uint64(i) * 0xBF58476D1CE4E5B9
	}
	return r
}

// refslice is the reference kernel: xorshift-indexed read-modify-writes
// over the small buffer, then over the large one.
func (r *refKernel) refslice() time.Duration {
	start := time.Now()
	x := r.state
	small, large := r.small, r.large
	for i := 0; i < refSmallIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		small[x&(refSmallWords-1)] += x
	}
	for i := 0; i < refLargeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		large[x&(refLargeWords-1)] += x
	}
	r.state = x
	return time.Since(start)
}

// slice runs the kernel once and returns its time in milliseconds.
func (r *refKernel) slice() float64 {
	ms := float64(r.refslice()) / float64(time.Millisecond)
	r.slices = append(r.slices, ms)
	return ms
}

// bracket is min(refslice, refslice) in milliseconds, taken with the load
// paused at the edge of a timed unit: the minimum of two discards a slice
// that was itself hit by a scheduling hiccup.
func (r *refKernel) bracket() float64 {
	a, b := r.refslice(), r.refslice()
	if b < a {
		a = b
	}
	ms := float64(a) / float64(time.Millisecond)
	r.slices = append(r.slices, ms)
	return ms
}

// refWindow accumulates the reference slices that belong to one timed unit.
type refWindow struct {
	sum float64
	n   int
}

func (w *refWindow) add(ms float64) {
	w.sum += ms
	w.n++
}

func (w refWindow) mean() float64 { return w.sum / float64(w.n) }

// between is the window of a unit with a bracket at each end and nothing
// inside.
func between(before, after float64) refWindow {
	return refWindow{sum: before + after, n: 2}
}

// correct scales a raw duration (any unit) by the drift its window saw.
func correct(raw float64, w refWindow) float64 {
	return raw * refNominalMS / w.mean()
}

// noise summarises how unsteady the box was over a run: the median slice
// and the ratio of the slowest to the fastest.
func (r *refKernel) noise() (p50, maxOverMin float64) {
	if len(r.slices) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), r.slices...)
	sort.Float64s(s)
	return stats.Median(s), s[len(s)-1] / s[0]
}
