package cpu

import (
	"testing"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/hw/mem"
)

// benchLoop installs a self-contained arithmetic/memory/branch loop
// (the shape the fast path optimizes for) and returns the CPU with PC
// at its entry. The loop body never halts, so the benchmarks meter
// pure interpreter throughput.
func benchLoop(b *testing.B) *CPU {
	b.Helper()
	c := New(mem.New(), cache.New(cache.DefaultP4()), DefaultConfig())
	base := c.NextCodeAddr()
	loop := base + 2*InstrBytes
	c.InstallCode([]Instr{
		{Op: OpMovImm, Rd: 3, Imm: 0x8000},
		{Op: OpSt8, Rs1: 3, Imm: 0, Rs2: 3},
		{Op: OpLd8, Rd: 4, Rs1: 3, Imm: 0}, // loop:
		{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 4},
		{Op: OpAddImm, Rd: 5, Rs1: 3, Imm: 8}, // address of the next word
		{Op: OpLd8, Rd: 6, Rs1: 5, Imm: 0},
		{Op: OpAddImm, Rd: 1, Rs1: 1, Imm: 1},
		{Op: OpBrGE, Rs1: 1, Rs2: RegZero, Imm: int64(loop)},
	})
	c.SP = 0x0200_0000 - 8
	c.Mem.Write8(c.SP, 0)
	c.PC = base
	return c
}

// BenchmarkCPUStep meters the single-step interpreter: one dispatched
// instruction per iteration, the path delegated ops and external
// drivers still take.
func BenchmarkCPUStep(b *testing.B) {
	c := benchLoop(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkCPURunLoop meters the fast path over the same
// program, in instruction-budget chunks large enough to amortize the
// flush/reload at the loop boundary. The per-op delta against
// BenchmarkCPUStep is the fast path's win on interpreter overhead
// alone (cache-hit cost is common to both).
func BenchmarkCPURunLoop(b *testing.B) {
	c := benchLoop(b)
	b.ResetTimer()
	const chunk = 4096
	for n := 0; n < b.N; n += chunk {
		c.Run(chunk)
	}
}
