// Package stats provides small statistical helpers used by the
// monitoring infrastructure and the benchmark harness: means, standard
// deviations, moving averages, and time series of sampled metrics.
//
// The paper reports averages over 3 executions with standard deviations
// (§6.1) and plots moving averages over the last 3 measurement periods
// (Figure 7b); this package implements exactly those primitives.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator).
// It returns 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// MovingAverage computes the trailing moving average of xs over the
// given window. Entry i averages xs[max(0,i-window+1)..i], so the
// result has the same length as xs. A window of 3 reproduces the
// "moving average over the last 3 periods" line from Figure 7b.
func MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}

// Sample is one (time, value) observation of a metric.
type Sample struct {
	Time  uint64  // simulated cycle count at which the value was observed
	Value float64 // observed value
}

// Series is an append-only time series of metric observations, e.g.
// the per-period L1 miss counts the monitor records for a field.
type Series struct {
	Name    string
	Samples []Sample
}

// Add appends an observation.
func (s *Series) Add(t uint64, v float64) {
	s.Samples = append(s.Samples, Sample{Time: t, Value: v})
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns just the observed values, in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.Value
	}
	return out
}

// Times returns just the observation times, in order.
func (s *Series) Times() []uint64 {
	out := make([]uint64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.Time
	}
	return out
}

// Cumulative returns a new series whose value at each point is the sum
// of all values up to and including that point (Figure 7a is the
// cumulative total count of cache misses).
func (s *Series) Cumulative() *Series {
	out := &Series{Name: s.Name + ".cumulative"}
	var sum float64
	for _, sm := range s.Samples {
		sum += sm.Value
		out.Add(sm.Time, sum)
	}
	return out
}

// Smoothed returns a new series holding the trailing moving average of
// the values over the given window, keeping the original times.
func (s *Series) Smoothed(window int) *Series {
	out := &Series{Name: fmt.Sprintf("%s.ma%d", s.Name, window)}
	vals := MovingAverage(s.Values(), window)
	for i, sm := range s.Samples {
		out.Add(sm.Time, vals[i])
	}
	return out
}

// Last returns the most recent value, or 0 if the series is empty.
func (s *Series) Last() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].Value
}
