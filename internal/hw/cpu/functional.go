package cpu

// Instruction-bounded execution: the region scheduler's entry point.
//
// Sampled simulation drives the CPU through the same interpreter in
// both lanes — the lane switch lives entirely in the
// cache hierarchy (cache.Hierarchy.SetFunctional), whose functional
// gate turns every Access into a flat charge plus a warming tag
// update. That keeps the two lanes architecturally identical by
// construction: registers, memory, control flow, traps and instret
// accounting all run through one loop, and the sampling keystone
// tests pin that a sampled run retires the exact instruction stream
// of an exact run. Cycles in the functional lane are a cheap clock
// that keeps tickers and budgets moving; they carry no timing
// fidelity and the region scheduler never measures them.

// RunBounded executes until the cycle counter reaches cycleHorizon or
// maxInstr instructions retire, whichever is first, and returns the
// instructions retired. Both bounds are live, so sampling phases end
// at exact instruction counts while ticker deadlines keep firing on
// time.
func (c *CPU) RunBounded(cycleHorizon, maxInstr uint64) uint64 {
	c.stop &^= stopYield
	return c.runLoop(cycleHorizon, maxInstr)
}
