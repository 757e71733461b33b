package mcmap

import (
	"testing"

	"hpmvm/internal/vm/classfile"
)

func body(m *classfile.Method, start, instrs uint64) *MCMap {
	bci := make([]int32, instrs)
	irid := make([]int32, instrs)
	for i := range bci {
		bci[i] = int32(i / 2)
		irid[i] = int32(i)
	}
	return &MCMap{
		Method:  m,
		Start:   start,
		End:     start + instrs*4,
		BCIndex: bci,
		IRID:    irid,
	}
}

func method(t *testing.T) (*classfile.Universe, *classfile.Method) {
	t.Helper()
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	return u, u.AddMethod(c, "m", false, nil, classfile.KindVoid)
}

func TestLookup(t *testing.T) {
	_, m := method(t)
	var tbl Table
	b1 := body(m, 0x1000, 8)
	b2 := body(m, 0x2000, 4)
	tbl.Register(b2)
	tbl.Register(b1) // out-of-order registration must still sort

	if got, ok := tbl.Lookup(0x1004); !ok || got != b1 {
		t.Error("lookup inside first body failed")
	}
	if got, ok := tbl.Lookup(0x200C); !ok || got != b2 {
		t.Error("lookup inside second body failed")
	}
	if _, ok := tbl.Lookup(0x1800); ok {
		t.Error("lookup in gap succeeded")
	}
	if _, ok := tbl.Lookup(0x2010); ok {
		t.Error("lookup past end succeeded")
	}
}

func TestOverlapPanics(t *testing.T) {
	_, m := method(t)
	var tbl Table
	tbl.Register(body(m, 0x1000, 8))
	defer func() {
		if recover() == nil {
			t.Error("overlapping registration accepted")
		}
	}()
	tbl.Register(body(m, 0x1010, 8))
}

func TestBytecodeAndIRMapping(t *testing.T) {
	_, m := method(t)
	b := body(m, 0x1000, 6)
	b.BCIndex[3] = NoBCI
	if bci, ok := b.BytecodeAt(0x1008); !ok || bci != 1 {
		t.Errorf("BytecodeAt = %d, %v", bci, ok)
	}
	if _, ok := b.BytecodeAt(0x100C); ok {
		t.Error("NoBCI entry resolved")
	}
	if _, ok := b.BytecodeAt(0x999); ok {
		t.Error("out-of-range PC resolved")
	}
	if id, ok := b.IRAt(0x1010); !ok || id != 4 {
		t.Errorf("IRAt = %d, %v", id, ok)
	}
}

func TestGCPointAt(t *testing.T) {
	_, m := method(t)
	b := body(m, 0x1000, 6)
	b.GCPoints = []GCPoint{
		{PC: 0x1004, RefRegs: 0b10, RefSlots: 0b101},
		{PC: 0x1010, RefRegs: 0, RefSlots: 0b1},
	}
	if gp := b.GCPointAt(0x1004); gp == nil || gp.RefRegs != 0b10 {
		t.Error("GCPointAt exact hit failed")
	}
	if gp := b.GCPointAt(0x1008); gp != nil {
		t.Error("GCPointAt non-GC-point returned a map")
	}
}

func TestSpaceAccounting(t *testing.T) {
	_, m := method(t)
	b := body(m, 0x1000, 10)
	b.GCPoints = make([]GCPoint, 3)
	if b.CodeBytes() != 40 {
		t.Errorf("CodeBytes = %d", b.CodeBytes())
	}
	if b.GCMapBytes() != perMethodHeader+3*gcPointBytes {
		t.Errorf("GCMapBytes = %d", b.GCMapBytes())
	}
	if b.MCMapBytes() != b.GCMapBytes()+10*mcEntryBytes {
		t.Errorf("MCMapBytes = %d", b.MCMapBytes())
	}

	var tbl Table
	tbl.Register(b)
	b2 := body(m, 0x2000, 4)
	b2.Opt = true
	b2.Obsolete = true
	tbl.Register(b2)
	sp := tbl.Space()
	if sp.Methods != 2 || sp.OptMethods != 1 || sp.ObsoleteBodies != 1 {
		t.Errorf("space stats: %+v", sp)
	}
	if sp.CodeBytes != 40+16 {
		t.Errorf("total code = %d", sp.CodeBytes)
	}
	if got := tbl.CurrentBodies(); len(got) != 1 || got[0] != b {
		t.Errorf("CurrentBodies = %v", got)
	}
}
