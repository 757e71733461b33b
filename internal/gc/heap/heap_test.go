package heap

import "testing"

func TestRegionPredicates(t *testing.T) {
	if !InNursery(NurseryBase) || InNursery(NurseryEnd) {
		t.Error("InNursery bounds wrong")
	}
	if !InMature(MatureBase) || InMature(MatureEnd) {
		t.Error("InMature bounds wrong")
	}
	if !InLOS(LOSBase) || InLOS(LOSBase-1) {
		t.Error("InLOS bounds wrong")
	}
	if !InImmortal(ImmortalBase) {
		t.Error("InImmortal wrong")
	}
	// The regions must not overlap.
	marks := []struct {
		lo, hi uint64
	}{{ImmortalBase, ImmortalEnd}, {NurseryBase, NurseryEnd}, {MatureBase, MatureEnd}, {LOSBase, LOSEnd}}
	for i := range marks {
		for j := i + 1; j < len(marks); j++ {
			if marks[i].lo < marks[j].hi && marks[j].lo < marks[i].hi {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestBumpSpace(t *testing.T) {
	s := NewBumpSpace("t", 0x1000, 0x2000)
	a := s.Alloc(16)
	b := s.Alloc(32)
	if a != 0x1000 || b != 0x1010 {
		t.Errorf("allocs: %#x %#x", a, b)
	}
	if s.Used() != 48 || s.Allocations != 2 {
		t.Errorf("Used=%d Allocations=%d", s.Used(), s.Allocations)
	}
	if !s.Contains(a) || s.Contains(0x1030) {
		t.Error("Contains wrong")
	}
	s.Reset()
	if s.Used() != 0 || s.Contains(a) {
		t.Error("Reset incomplete")
	}
}

func TestBumpSpaceSoftLimit(t *testing.T) {
	s := NewBumpSpace("t", 0x1000, 0x10000)
	s.SetSoftLimit(64)
	if s.SoftSize() != 64 {
		t.Errorf("SoftSize = %d", s.SoftSize())
	}
	if s.Alloc(48) == 0 {
		t.Fatal("alloc within limit failed")
	}
	if s.Alloc(32) != 0 {
		t.Error("alloc beyond soft limit succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("soft limit beyond region accepted")
		}
	}()
	s.SetSoftLimit(0x10000)
}

func TestBumpSpaceAlignmentGuard(t *testing.T) {
	s := NewBumpSpace("t", 0x1000, 0x2000)
	defer func() {
		if recover() == nil {
			t.Error("unaligned alloc accepted")
		}
	}()
	s.Alloc(12)
}

func TestLOSAllocFree(t *testing.T) {
	l := NewLOS(0x5000_0000, 0x5010_0000)
	a := l.Alloc(5000) // rounds to 2 pages
	if a != 0x5000_0000 {
		t.Fatalf("first alloc at %#x", a)
	}
	if l.Used() != 8192 {
		t.Errorf("Used = %d", l.Used())
	}
	b := l.Alloc(100)
	if b != a+8192 {
		t.Errorf("second alloc at %#x", b)
	}
	if !l.Contains(a) || l.Contains(a+4096) {
		t.Error("Contains should match base addresses only")
	}
	l.Free(a)
	if l.Used() != 4096 {
		t.Errorf("Used after free = %d", l.Used())
	}
	// First-fit reuse of the freed run.
	c := l.Alloc(4096)
	if c != a {
		t.Errorf("freed run not reused: %#x", c)
	}
}

func TestLOSSplitsRuns(t *testing.T) {
	l := NewLOS(0x5000_0000, 0x5010_0000)
	a := l.Alloc(16384) // 4 pages
	l.Free(a)
	b := l.Alloc(4096) // takes the first page of the freed run
	if b != a {
		t.Errorf("split alloc at %#x", b)
	}
	c := l.Alloc(8192) // fits in the remainder
	if c != a+4096 {
		t.Errorf("remainder alloc at %#x", c)
	}
}

func TestLOSExhaustion(t *testing.T) {
	l := NewLOS(0x5000_0000, 0x5000_2000) // two pages
	if l.Alloc(4096) == 0 || l.Alloc(4096) == 0 {
		t.Fatal("initial allocs failed")
	}
	if l.Alloc(1) != 0 {
		t.Error("exhausted LOS still allocating")
	}
}

func TestLOSObjects(t *testing.T) {
	l := NewLOS(0x5000_0000, 0x5010_0000)
	a := l.Alloc(100)
	b := l.Alloc(100)
	objs := l.Objects()
	if len(objs) != 2 {
		t.Fatalf("Objects = %v", objs)
	}
	seen := map[uint64]bool{}
	for _, o := range objs {
		seen[o] = true
	}
	if !seen[a] || !seen[b] {
		t.Error("Objects missing allocations")
	}
	defer func() {
		if recover() == nil {
			t.Error("double free accepted")
		}
	}()
	l.Free(a)
	l.Free(a)
}

func TestSoftLimitZeroClosesSpace(t *testing.T) {
	// The collectors close the nursery by setting a zero soft limit
	// when the heap budget is exhausted; every allocation must then
	// fail so the OOM surfaces.
	s := NewBumpSpace("t", 0x1000, 0x2000)
	s.SetSoftLimit(0)
	if s.Alloc(8) != 0 {
		t.Fatal("allocation succeeded in a closed space")
	}
	if s.SoftSize() != 0 {
		t.Fatalf("SoftSize = %d", s.SoftSize())
	}
}
