package bench

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestEngineRunsEverything(t *testing.T) {
	e := NewEngine(4)
	var n atomic.Int64
	results := make([]int, 20)
	for i := 0; i < 20; i++ {
		i := i
		e.Submit("task", func() error {
			n.Add(1)
			results[i] = i + 1
			return nil
		})
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 20 {
		t.Fatalf("ran %d tasks, want 20", n.Load())
	}
	for i, v := range results {
		if v != i+1 {
			t.Fatalf("slot %d = %d, want %d (per-slot results must be stable)", i, v, i+1)
		}
	}
	st := e.Stats()
	if st.Runs != 20 || st.Jobs != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineErrorPropagatesAndFailsFast(t *testing.T) {
	e := NewEngine(1)
	boom := errors.New("boom")
	var after atomic.Int64
	e.Submit("ok", func() error { return nil })
	e.Submit("bad", func() error { return boom })
	for i := 0; i < 10; i++ {
		e.Submit("later", func() error {
			after.Add(1)
			return nil
		})
	}
	if err := e.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want boom", err)
	}
	// With one worker, everything submitted after the failing task may
	// be skipped; at minimum the engine must not lose the error and
	// must not deadlock. (Scheduling order of goroutines is not FIFO,
	// so we only assert the skip counter never exceeds the submissions.)
	if after.Load() > 10 {
		t.Fatalf("impossible completion count %d", after.Load())
	}
}

func TestEngineDefaultJobs(t *testing.T) {
	if NewEngine(0).Jobs() != DefaultJobs() {
		t.Fatal("jobs=0 should select DefaultJobs")
	}
	if NewEngine(-3).Jobs() != DefaultJobs() {
		t.Fatal("negative jobs should select DefaultJobs")
	}
	if NewEngine(7).Jobs() != 7 {
		t.Fatal("explicit jobs not honored")
	}
}

func TestEngineProgressAndAccounting(t *testing.T) {
	e := NewEngine(2)
	var calls atomic.Int64
	var lastDone atomic.Int64
	e.SetProgress(func(done, total int, label string) {
		calls.Add(1)
		lastDone.Store(int64(done))
		if done > total {
			t.Errorf("done %d > total %d", done, total)
		}
		if label != "sleepy" {
			t.Errorf("label = %q", label)
		}
	})
	for i := 0; i < 5; i++ {
		e.Submit("sleepy", func() error {
			time.Sleep(time.Millisecond)
			return nil
		})
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 || lastDone.Load() != 5 {
		t.Fatalf("progress calls = %d, last done = %d, want 5/5", calls.Load(), lastDone.Load())
	}
	st := e.Stats()
	if st.RunTime < 5*time.Millisecond {
		t.Fatalf("RunTime %v shorter than the sleeps it contains", st.RunTime)
	}
}

func TestEngineReuseAccumulates(t *testing.T) {
	e := NewEngine(2)
	e.Submit("a", func() error { return nil })
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	e.Submit("b", func() error { return nil })
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Runs != 2 {
		t.Fatalf("accounting did not accumulate across rounds: %+v", st)
	}
}

func TestRunAsyncMatchesRun(t *testing.T) {
	b, _ := Get("_unit_tiny")
	want, _, err := Run(b, RunConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(4)
	h := e.RunAsync(b, RunConfig{Seed: 5}, "tiny")
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	got := h.Result()
	if got.Cycles != want.Cycles || got.Cache.L1Misses != want.Cache.L1Misses {
		t.Fatalf("async run diverged: %d/%d vs %d/%d",
			got.Cycles, got.Cache.L1Misses, want.Cycles, want.Cache.L1Misses)
	}
	if h.Sys() == nil {
		t.Fatal("system not captured")
	}
}

// A mean over no runs is NaN and a negative count cannot size a slice:
// both must surface from Wait as an error, not as a table or a panic.
func TestRepeatAsyncRejectsNoReps(t *testing.T) {
	b, _ := Get("_unit_tiny")
	for _, reps := range []int{0, -1} {
		e := NewEngine(2)
		e.RepeatAsync(b, RunConfig{}, reps, "tiny")
		if err := e.Wait(); err == nil || !strings.Contains(err.Error(), "reps must be at least 1") {
			t.Errorf("reps %d: Wait() = %v, want a reps error", reps, err)
		}
		if st := e.Stats(); st.SimCycles != 0 {
			t.Errorf("reps %d: simulated %d cycles", reps, st.SimCycles)
		}
	}
}

func TestRegisterAfterFreezePanics(t *testing.T) {
	Names() // freezes the registry
	defer func() {
		if recover() == nil {
			t.Error("Register after freeze did not panic")
		}
	}()
	Register("_too_late", nil)
}
