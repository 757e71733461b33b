package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{57.0, 61.6}, 55.85, 62.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 6, 8, 10.5, 11}, 3, 9},
	}
	for _, tc := range cases {
		q1, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

func TestCompare(t *testing.T) {
	higher := endToEnd{Name: "sim_minstr_per_s", Better: "higher", Bound: 0.25}
	lower := endToEnd{Name: "peak_rss_mb", Better: "lower", Bound: 0.25}
	parent := []float64{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}

	// Ahead in every pair by more than the parent's spread: a claim.
	var faster []float64
	for _, v := range parent {
		faster = append(faster, v+6)
	}
	c := compare(higher, len(parent), parent, faster)
	if c.ahead != 10 || !c.claimSupported || c.beyondBound {
		t.Errorf("faster change: %+v, want ahead 10/10, claim supported, within bound", c)
	}

	// Ahead in every pair, but fewer than ten pairs: no claim.
	if c := compare(higher, 4, parent[:4], faster[:4]); c.ahead != 4 || c.claimSupported {
		t.Errorf("four faster pairs: %+v, want ahead 4/4 and no claim", c)
	}

	// Ahead in all nine pairs that ran cleanly out of ten: a claim.
	// Out of twelve, the two failed pairs count against it.
	if c := compare(higher, 10, parent[1:], faster[1:]); c.ahead != 9 || c.pairs != 10 || !c.claimSupported {
		t.Errorf("nine faster pairs of ten: %+v, want ahead 9/10 and a claim", c)
	}
	if c := compare(higher, 12, parent, faster); c.ahead != 10 || c.pairs != 12 || c.claimSupported {
		t.Errorf("ten faster pairs of twelve: %+v, want ahead 10/12 and no claim", c)
	}

	// Ahead in every pair, but by less than the spread: no claim.
	var slightly []float64
	for _, v := range parent {
		slightly = append(slightly, v+1)
	}
	if c := compare(higher, len(parent), parent, slightly); c.ahead != 10 || c.claimSupported {
		t.Errorf("slightly faster change: %+v, want ahead 10/10 and no claim", c)
	}

	// Ahead in eight of ten: no claim, whatever the median.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = parent[0], parent[1]-1
	if c := compare(higher, len(parent), parent, mixed); c.ahead != 8 || c.claimSupported {
		t.Errorf("mixed change: %+v, want ahead 8/10 and no claim", c)
	}

	// For a lower-is-better metric, a larger value is a loss, and a
	// third more than the parent's median is beyond a 25 % bound.
	var bigger []float64
	for _, v := range parent {
		bigger = append(bigger, v*4/3)
	}
	c = compare(lower, len(parent), parent, bigger)
	if c.ahead != 0 || !c.beyondBound || c.gain >= 0 {
		t.Errorf("bigger footprint: %+v, want ahead 0, beyond bound, negative gain", c)
	}
	if c := compare(lower, len(parent), parent, parent); c.ahead != 0 || c.beyondBound || c.gain != 0 {
		t.Errorf("equal runs: %+v, want no pair ahead, within bound, no gain", c)
	}
}

func TestFormat(t *testing.T) {
	for v, want := range map[float64]string{
		776942198:    "776942198",
		773986012.75: "773986012.8",
		58.18099571:  "58.181",
		0.0356881234: "0.0356881",
	} {
		if got := format(v); got != want {
			t.Errorf("format(%v) = %q, want %q", v, got, want)
		}
	}
}
