package emit

import (
	"testing"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/cpu"
	"hpmvm/internal/hw/mem"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/mcmap"
)

func testCPU() *cpu.CPU {
	return cpu.New(mem.New(), cache.New(cache.DefaultP4()), cpu.DefaultConfig())
}

func testMethod() *classfile.Method {
	u := classfile.NewUniverse()
	c := u.DefineClass("C", nil)
	return u.AddMethod(c, "m", false, nil, classfile.KindVoid)
}

func TestEmitAndFinish(t *testing.T) {
	c := testCPU()
	a := New(c)
	base := a.Base()
	a.Emit(cpu.Instr{Op: cpu.OpNop}, 0, 0)
	a.Emit(cpu.Instr{Op: cpu.OpRet}, 1, mcmap.NoBCI)
	m := a.Finish(testMethod(), false, 3)
	if m.Start != base || m.End != base+2*cpu.InstrBytes {
		t.Errorf("range [%#x,%#x)", m.Start, m.End)
	}
	if m.FrameSlots != 3 || m.Opt {
		t.Error("metadata wrong")
	}
	if bci, ok := m.BytecodeAt(base); !ok || bci != 0 {
		t.Error("BCI map wrong")
	}
	if in, ok := c.InstrAt(base + cpu.InstrBytes); !ok || in.Op != cpu.OpRet {
		t.Error("code not installed")
	}
}

func TestForwardLabelFixup(t *testing.T) {
	c := testCPU()
	a := New(c)
	l := a.NewLabel()
	a.EmitJump(cpu.Instr{Op: cpu.OpJmp}, l, 0, 0)
	a.Emit(cpu.Instr{Op: cpu.OpNop}, 1, 0)
	a.Bind(l)
	a.Emit(cpu.Instr{Op: cpu.OpRet}, 2, 0)
	m := a.Finish(testMethod(), true, 0)
	in, _ := c.InstrAt(m.Start)
	if uint64(in.Imm) != m.Start+2*cpu.InstrBytes {
		t.Errorf("forward jump target %#x, want %#x", in.Imm, m.Start+2*cpu.InstrBytes)
	}
}

func TestBackwardLabel(t *testing.T) {
	c := testCPU()
	a := New(c)
	l := a.NewLabel()
	a.Bind(l)
	a.Emit(cpu.Instr{Op: cpu.OpNop}, 0, 0)
	a.EmitJump(cpu.Instr{Op: cpu.OpBrEQ}, l, 1, 0)
	m := a.Finish(testMethod(), false, 0)
	in, _ := c.InstrAt(m.Start + cpu.InstrBytes)
	if uint64(in.Imm) != m.Start {
		t.Errorf("backward branch target %#x", in.Imm)
	}
}

func TestGCPointRecording(t *testing.T) {
	c := testCPU()
	a := New(c)
	a.Emit(cpu.Instr{Op: cpu.OpTrap, Imm: cpu.TrapAllocObject}, 5, 0)
	a.GCPoint(0b10, 0b101, 5)
	m := a.Finish(testMethod(), true, 4)
	gp := m.GCPointAt(m.Start)
	if gp == nil || gp.RefRegs != 0b10 || gp.RefSlots != 0b101 || gp.BCI != 5 {
		t.Fatalf("GC point = %+v", gp)
	}
}

func TestPatch(t *testing.T) {
	c := testCPU()
	a := New(c)
	idx := a.Emit(cpu.Instr{Op: cpu.OpEnter, Imm: 0}, mcmap.NoBCI, mcmap.NoBCI)
	a.Emit(cpu.Instr{Op: cpu.OpRet}, mcmap.NoBCI, mcmap.NoBCI)
	a.Patch(idx, 48)
	m := a.Finish(testMethod(), true, 6)
	in, _ := c.InstrAt(m.Start)
	if in.Imm != 48 {
		t.Errorf("patched imm = %d", in.Imm)
	}
}

func TestUnboundLabelPanics(t *testing.T) {
	c := testCPU()
	a := New(c)
	l := a.NewLabel()
	a.EmitJump(cpu.Instr{Op: cpu.OpJmp}, l, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("Finish with unbound label did not panic")
		}
	}()
	a.Finish(testMethod(), false, 0)
}

func TestDoubleBindPanics(t *testing.T) {
	c := testCPU()
	a := New(c)
	l := a.NewLabel()
	a.Bind(l)
	defer func() {
		if recover() == nil {
			t.Error("double Bind did not panic")
		}
	}()
	a.Bind(l)
}

func TestSlotHelpers(t *testing.T) {
	if SlotOffset(0) != -8 || SlotOffset(3) != -32 {
		t.Error("SlotOffset wrong")
	}
}
