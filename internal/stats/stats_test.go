package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); !almostEq(got, 0) {
		t.Errorf("StdDev of constants = %v, want 0", got)
	}
	if got := StdDev([]float64{1}); got != 0 {
		t.Errorf("StdDev of singleton = %v, want 0", got)
	}
	// Known value: sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v, want ~2.13809", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); !almostEq(got, 2) {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); !almostEq(got, 2.5) {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated input: %v", in)
	}
}

func TestMovingAverage(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(in, 3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAverageWindowOneIsIdentity(t *testing.T) {
	// The rolling-sum implementation is only numerically exact for
	// reasonably scaled inputs, so the property uses bounded values
	// (metric series are counts and rates, not 1e308 extremes).
	f := func(raw []int32) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		out := MovingAverage(xs, 1)
		for i := range xs {
			if !almostEq(out[i], xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverageBounds(t *testing.T) {
	// Property: each moving average lies within [min, max] of the input.
	f := func(raw []uint8, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			xs[i] = float64(v)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		for _, m := range MovingAverage(xs, int(w%8)+1) {
			if m < lo-1e-9 || m > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	s.Add(10, 1)
	s.Add(20, 2)
	s.Add(30, 4)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Last(); got != 4 {
		t.Errorf("Last = %v", got)
	}
	cum := s.Cumulative()
	want := []float64{1, 3, 7}
	for i, v := range cum.Values() {
		if !almostEq(v, want[i]) {
			t.Errorf("Cumulative[%d] = %v, want %v", i, v, want[i])
		}
	}
	if times := cum.Times(); times[2] != 30 {
		t.Errorf("Cumulative keeps times, got %v", times)
	}
	sm := s.Smoothed(2)
	if !almostEq(sm.Values()[2], 3) {
		t.Errorf("Smoothed[2] = %v, want 3", sm.Values()[2])
	}
	var empty Series
	if empty.Last() != 0 {
		t.Error("Last of empty series should be 0")
	}
}
