package snap

import (
	"errors"
	"testing"
)

func TestReaderCountBoundsByRemainingInput(t *testing.T) {
	var w Writer
	w.U64(3)
	w.U64(1)
	w.U64(2)
	w.U64(3)
	r := NewReader(w.Bytes())
	if n := r.Count(8); n != 3 || r.Err() != nil {
		t.Fatalf("Count(8) = %d, %v; want 3, nil", n, r.Err())
	}

	for name, tc := range map[string]struct {
		count    uint64
		elemSize int
	}{
		"one element too many":  {4, 8},
		"elements too large":    {3, 9},
		"overflowing the range": {1 << 62, 8},
	} {
		var w Writer
		w.U64(tc.count)
		w.U64(1)
		w.U64(2)
		w.U64(3)
		r := NewReader(w.Bytes())
		if n := r.Count(tc.elemSize); n != 0 || !errors.Is(r.Err(), ErrDecode) {
			t.Errorf("%s: Count = %d, err %v; want 0 and ErrDecode", name, n, r.Err())
		}
		if r.U64() != 0 || r.Close() == nil {
			t.Errorf("%s: error is not sticky", name)
		}
	}

	// A truncated count itself fails the same way.
	r = NewReader([]byte{1, 2, 3})
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrDecode) {
		t.Errorf("truncated: Count = %d, err %v", n, r.Err())
	}
}
