package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// endToEnd is one end-to-end metric as BENCHMARK.json declares it.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // share of the parent's median it may worsen by
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the middle value of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 of xs (at least two values) the way
// Python's statistics.quantiles does by default (the "exclusive"
// method), which is how benchmark/baseline.json states its spreads.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4 // after clamping, as Python does: it may extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// format prints whole numbers and large ones (sim_cycles, which a
// sampled run estimates) to their units, and others to six significant
// digits.
func format(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 1e6:
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// comparison sums up one metric over the pairs: parent[i] and
// change[i] were measured at the same seed.
type comparison struct {
	metric         endToEnd
	ahead          int        // pairs where the change is strictly better
	pairs          int        // pairs run, failed ones included
	parentMedian   float64    // median of the parent's runs
	changeMedian   float64    // median of the change's runs
	parentQ        [2]float64 // Q1 and Q3 of the parent's runs
	changeQ        [2]float64 // Q1 and Q3 of the change's runs
	gain           float64    // change against parent median, signed so that > 0 is better
	beyondBound    bool       // the change's median is worse than the bound allows
	claimSupported bool       // ten pairs or more, ahead in nine tenths and the median gain beyond the spread
}

// compare evaluates one metric over paired runs: parent and change
// hold the pairs that reported it on both sides, out of pairs run.
func compare(m endToEnd, pairs int, parent, change []float64) comparison {
	c := comparison{metric: m, pairs: pairs}
	if len(parent) == 0 {
		return c
	}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range parent {
		if sign*(change[i]-parent[i]) > 0 {
			c.ahead++
		}
	}
	c.parentMedian, c.changeMedian = median(parent), median(change)
	if len(parent) >= 2 {
		c.parentQ[0], c.parentQ[1] = quartiles(parent)
		c.changeQ[0], c.changeQ[1] = quartiles(change)
	}
	diff := sign * (c.changeMedian - c.parentMedian)
	if diff == 0 {
		diff = 0 // not -0 in the table
	}
	if c.parentMedian != 0 {
		c.gain = diff / c.parentMedian
	}
	c.beyondBound = diff < -m.Bound*c.parentMedian
	c.claimSupported = c.pairs >= 10 && 10*c.ahead >= 9*c.pairs && diff > c.parentQ[1]-c.parentQ[0]
	return c
}

// String is one row of the summary table: each side's median with its
// quartiles in brackets.
func (c comparison) String() string {
	verdict := "within bound"
	if c.beyondBound {
		verdict = fmt.Sprintf("BEYOND BOUND %g %%", 100*c.metric.Bound)
	}
	claim := "no"
	if c.claimSupported {
		claim = "yes"
	}
	side := func(median float64, q [2]float64) string {
		return fmt.Sprintf("%s [%s, %s]", format(median), format(q[0]), format(q[1]))
	}
	return fmt.Sprintf("%-17s %-6s %2d/%-2d  parent %s  change %s  %+.2f %%  claim %s, %s",
		c.metric.Name, c.metric.Better, c.ahead, c.pairs, side(c.parentMedian, c.parentQ),
		side(c.changeMedian, c.changeQ), 100*c.gain, claim, verdict)
}
