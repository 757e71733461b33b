package runtime

import "testing"

// TestSamplingConfigZeroMeansDefault pins the zero-value contract: an
// all-zero config resolves to the default operating point, and
// WithDefaults is idempotent.
func TestSamplingConfigZeroMeansDefault(t *testing.T) {
	got := SamplingConfig{}.WithDefaults()
	want := DefaultSamplingConfig()
	if got != want {
		t.Errorf("zero config resolved to %+v, want default %+v", got, want)
	}
	if again := got.WithDefaults(); again != got {
		t.Errorf("WithDefaults not idempotent: %+v -> %+v", got, again)
	}
}
