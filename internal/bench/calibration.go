package bench

import "hpmvm/internal/vm/runtime"

// Per-workload sampling-schedule calibration. The default schedule
// (runtime.DefaultSamplingConfig) holds every fig2 workload within
// ~1.1% cycle error, but workloads with strong phase structure can sit
// near that edge: their behaviour alternates on a scale comparable to
// the fast-forward period, so a schedule whose regions land mostly in
// one kind of phase misweights the mix. Shortening the fast-forward
// (more regions per run) and lengthening the measured slice fixes the
// weighting at the cost of a smaller functional fraction — roughly 2x
// less sampled speedup for the workload, which only it pays.
//
// Entries are found by sweeping FF/measure lengths against the
// cycle-exact run (the workflow behind `make verify-sampling`);
// TestSamplingCalibration pins each entry's documented bound so a
// sampler or cost-model change that invalidates the table fails CI.
var samplingCalibration = map[string]runtime.SamplingConfig{
	// jack alternates parse-heavy and emit-heavy phases near the default
	// 100K-instruction fast-forward period; under the default schedule
	// its estimate sits at about -1% error. FF 30K with a 40K measured
	// region triples the region count and holds the whole multiplexed
	// fig2 pass (baseline and every monitored lane) within 0.1%.
	"jack": {FFInstrs: 30_000, WarmupInstrs: 10_000, MeasureInstrs: 40_000, FlatMemCycles: 2},
}

// CalibratedSampling returns the sampling schedule to use for a
// workload: its calibration-table entry when one exists, else the
// default operating point. Every sampled surface — the sampling
// experiments and sampled serve requests — resolves its schedule
// through here so the table applies uniformly.
func CalibratedSampling(name string) runtime.SamplingConfig {
	if cfg, ok := samplingCalibration[name]; ok {
		return cfg
	}
	return runtime.DefaultSamplingConfig()
}
