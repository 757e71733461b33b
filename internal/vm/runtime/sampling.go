package runtime

// Sampled simulation: the region scheduler that alternates the machine
// between functional fast-forward and detailed measurement, in the
// style of periodic region sampling (SMARTS/Pac-Sim; see DESIGN.md
// §12). Phase boundaries are instruction counts, so the schedule is a
// pure function of the architectural instruction stream and identical
// across cost models — the keystone tests rely on this to compare
// sampled runs against exact ones region by region.

import (
	"fmt"

	"hpmvm/internal/hw/cache"
	"hpmvm/internal/stats"
)

// SamplingConfig parameterizes sampled simulation. The zero value of
// any field means "default" (see DefaultSamplingConfig); an all-zero
// config is therefore the default operating point.
type SamplingConfig struct {
	// FFInstrs is the length of each functional fast-forward phase in
	// instructions.
	FFInstrs uint64
	// WarmupInstrs is the detailed slice executed before each measured
	// region to let cache/TLB state refill naturally after a
	// fast-forward. It is simulated cycle-exactly but discarded.
	WarmupInstrs uint64
	// MeasureInstrs is the length of each measured detailed region.
	MeasureInstrs uint64
	// FlatMemCycles is the flat per-access charge of the functional
	// lane (the hierarchy's L1 hit cost is the natural choice).
	FlatMemCycles uint64
}

// DefaultSamplingConfig returns the calibrated operating point: a 30 K
// instruction measured region preceded by a 10 K warmup slice every
// 140 K instructions (~21% of the stream measured), with fast-forward
// memory charged at the L1 hit cost. Calibrated against the exact
// golden corpus: across the 16 fig2 workloads this schedule estimates
// full-run cycles within 1.1% worst-case (0.3% mean) of the
// cycle-exact simulation (TestSamplingCalibration holds four of them
// to it).
func DefaultSamplingConfig() SamplingConfig {
	return SamplingConfig{
		FFInstrs:      100_000,
		WarmupInstrs:  10_000,
		MeasureInstrs: 30_000,
		FlatMemCycles: 2,
	}
}

// WithDefaults fills zero fields from DefaultSamplingConfig, so no
// phase of a resolved schedule is empty.
func (c SamplingConfig) WithDefaults() SamplingConfig {
	d := DefaultSamplingConfig()
	if c.FFInstrs == 0 {
		c.FFInstrs = d.FFInstrs
	}
	if c.WarmupInstrs == 0 {
		c.WarmupInstrs = d.WarmupInstrs
	}
	if c.MeasureInstrs == 0 {
		c.MeasureInstrs = d.MeasureInstrs
	}
	if c.FlatMemCycles == 0 {
		c.FlatMemCycles = d.FlatMemCycles
	}
	return c
}

// Scheduler phases. A period is warmup → measure → fast-forward: the
// run opens with a detailed slice so the cold-start region is measured
// from genuinely cold caches, exactly like an exact run's prefix.
const (
	phaseWarm = iota
	phaseMeasure
	phaseFF
)

// Sampler is the region scheduler. It owns the machine's lane switch
// (the cache.Hierarchy functional gate — flat memory charges with
// functional warming of the tag state during fast-forward),
// collects one stats.Region per measured slice, and accounts VM
// service cycles (allocation and GC) exactly: services always run in
// the detailed lane — collections are too bursty to sample — and their
// cycles are excluded from region rates and added back as a measured
// total at extrapolation time.
type Sampler struct {
	vm  *VM
	cfg SamplingConfig

	phase int
	left  uint64 // instructions remaining in the current phase
	done  bool

	regions []stats.Region

	// Measurement-slice snapshots.
	measCycles  uint64
	measInstret uint64
	measSvc     uint64
	measSamples uint64
	measCache   cache.Stats

	// VM service bracket (Collector.Alloc): depth-counted so nested
	// service entries (a collection triggering another) measure once.
	svcCycles     uint64
	svcDepth      int
	svcStart      uint64
	svcFunctional bool

	// sampleCount, when set, reads the cumulative PEBS sample count so
	// regions can attribute samples to slices (monitored runs).
	sampleCount func() uint64

	// jitter is the LCG state behind the fast-forward length
	// randomization (see nextFF). Seeded by a fixed constant, so a
	// given config replays the identical schedule every run.
	jitter uint64
}

// EnableSampling switches the VM into sampled-simulation mode. It must
// be called before Run; the machine starts in the detailed warmup
// phase. The returned Sampler is also reachable via VM.Sampler.
func (vm *VM) EnableSampling(cfg SamplingConfig) (*Sampler, error) {
	if vm.sampler != nil {
		return nil, fmt.Errorf("runtime: sampling already enabled")
	}
	if vm.started {
		return nil, fmt.Errorf("runtime: EnableSampling after Start")
	}
	s := &Sampler{vm: vm, cfg: cfg.WithDefaults()}
	s.phase = phaseWarm
	s.left = s.cfg.WarmupInstrs
	vm.sampler = s
	return s, nil
}

// Sampler returns the region scheduler, or nil for an exact-mode VM.
func (vm *VM) Sampler() *Sampler { return vm.sampler }

// Regions returns the measured regions collected so far.
func (s *Sampler) Regions() []stats.Region { return s.regions }

// SetSampleCounter installs the cumulative PEBS sample count reader
// used to attribute samples to measured regions.
func (s *Sampler) SetSampleCounter(fn func() uint64) { s.sampleCount = fn }

// Estimate extrapolates the full-run metrics from the measured regions.
func (s *Sampler) Estimate() stats.Estimate {
	return stats.Extrapolate(s.regions, s.vm.CPU.Instret(), s.svcCycles)
}

// advance is the sampled-mode replacement for CPU.RunCycles in the VM
// run loop: it executes up to the caller's cycle horizon, switching
// lanes at phase boundaries. Horizon semantics are identical to
// RunCycles, so ticker scheduling, pause points, and cancel safepoints
// behave exactly as in exact mode.
func (s *Sampler) advance(horizon uint64) {
	c := s.vm.CPU
	for !c.Halted() && c.Cycles() < horizon {
		s.left -= c.RunBounded(horizon, s.left)
		if s.left != 0 {
			break // horizon reached, halted or yielded mid-phase
		}
		s.nextPhase()
	}
	if c.Halted() {
		s.finish()
	}
}

// nextPhase rotates warmup → measure → fast-forward → warmup, flipping
// the hierarchy lane and snapshotting region boundaries.
func (s *Sampler) nextPhase() {
	switch s.phase {
	case phaseWarm:
		s.phase = phaseMeasure
		s.left = s.cfg.MeasureInstrs
		s.beginMeasure()
	case phaseMeasure:
		s.endMeasure()
		s.phase = phaseFF
		s.left = s.nextFF()
		s.vm.Hier.SetFunctional(s.cfg.FlatMemCycles)
	case phaseFF:
		s.vm.Hier.SetDetailed()
		s.phase = phaseWarm
		s.left = s.cfg.WarmupInstrs
	}
}

// nextFF returns the next fast-forward length: uniform in
// [FFInstrs/2, 3·FFInstrs/2) from a deterministic LCG, so the mean
// period (and measured fraction) matches the config while the region
// placement cannot phase-lock onto periodic program structure — the
// same reason PEBS randomizes its interval's low bits (§6.1). The LCG
// seed is fixed: a config fully determines its schedule.
func (s *Sampler) nextFF() uint64 {
	if s.jitter == 0 {
		s.jitter = 0x9E3779B97F4A7C15
	}
	s.jitter = s.jitter*6364136223846793005 + 1442695040888963407
	ff := s.cfg.FFInstrs
	n := ff/2 + (s.jitter>>33)%ff
	if n == 0 {
		n = 1
	}
	return n
}

// finish closes a measurement slice cut short by program end, so short
// runs still contribute their tail. Idempotent.
func (s *Sampler) finish() {
	if s.done {
		return
	}
	s.done = true
	if s.phase == phaseMeasure {
		s.endMeasure()
	}
	s.vm.Hier.SetDetailed()
}

func (s *Sampler) beginMeasure() {
	vm := s.vm
	s.measCycles = vm.CPU.Cycles()
	s.measInstret = vm.CPU.Instret()
	s.measSvc = s.svcCycles
	s.measCache = vm.Hier.Stats()
	if s.sampleCount != nil {
		s.measSamples = s.sampleCount()
	}
}

func (s *Sampler) endMeasure() {
	vm := s.vm
	cs := vm.Hier.Stats()
	r := stats.Region{
		StartInstret:  s.measInstret,
		Instret:       vm.CPU.Instret() - s.measInstret,
		Cycles:        vm.CPU.Cycles() - s.measCycles,
		ServiceCycles: s.svcCycles - s.measSvc,
		Accesses:      cs.Accesses - s.measCache.Accesses,
		L1Misses:      cs.L1Misses - s.measCache.L1Misses,
		L2Misses:      cs.L2Misses - s.measCache.L2Misses,
		TLBMisses:     cs.TLBMisses - s.measCache.TLBMisses,
	}
	if s.sampleCount != nil {
		r.Samples = s.sampleCount() - s.measSamples
	}
	if r.Instret == 0 {
		return
	}
	s.regions = append(s.regions, r)
}

// serviceBegin/serviceEnd bracket Collector.Alloc (the only entry to
// allocation and collection work). While the bracket is open the
// hierarchy runs detailed even mid-fast-forward: collections are rare,
// large bursts whose cycles must be measured, not sampled, and whose
// cache traffic realistically disturbs the warm state the next region
// inherits.
func (s *Sampler) serviceBegin() {
	s.svcDepth++
	if s.svcDepth > 1 {
		return
	}
	s.svcStart = s.vm.CPU.Cycles()
	if s.vm.Hier.Functional() {
		s.svcFunctional = true
		s.vm.Hier.SetDetailed()
	}
}

func (s *Sampler) serviceEnd() {
	s.svcDepth--
	if s.svcDepth > 0 {
		return
	}
	s.svcCycles += s.vm.CPU.Cycles() - s.svcStart
	if s.svcFunctional {
		s.svcFunctional = false
		s.vm.Hier.SetFunctional(s.cfg.FlatMemCycles)
	}
}
