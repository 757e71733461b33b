package core_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"hpmvm/internal/core"
	"hpmvm/internal/opt"
	"hpmvm/internal/snap"
	"hpmvm/internal/vm/runtime"
)

// A fourth optimization kind declared entirely in this file: the cost
// of a kind is one descriptor next to one Optimization. Nothing outside
// this file knows the kind exists, yet core validates it, fingerprints
// it, builds it, manages it, reports it and checkpoints it.

const kindToy = "toy"

// toyConfig tunes the toy kind: it "decides" on every Every-th poll.
type toyConfig struct{ Every uint64 }

func (c toyConfig) withDefaults() toyConfig {
	if c.Every == 0 {
		c.Every = 4
	}
	return c
}

// toyOpt is the kind's Optimization: it counts monitor polls and
// decides every cfg.Every of them. It never has anything to assess.
type toyOpt struct {
	cfg              toyConfig
	polls, decisions uint64
}

func (o *toyOpt) Kind() string { return kindToy }
func (o *toyOpt) Analyze(now uint64) []opt.Proposal {
	if o.polls++; o.polls%o.cfg.Every != 0 {
		return nil
	}
	return []opt.Proposal{{Target: int(o.decisions), Label: "tick"}}
}
func (o *toyOpt) Apply(now uint64, p opt.Proposal) float64             { o.decisions++; return 0 }
func (o *toyOpt) MonitorWindow() uint64                                { return 0 }
func (o *toyOpt) OpenDecisions() []*opt.Decision                       { return nil }
func (o *toyOpt) Assess(uint64, *opt.Decision) opt.Assessment          { return opt.Assessment{} }
func (o *toyOpt) Revert(now uint64, d *opt.Decision, a opt.Assessment) {}
func newToy(_ opt.Env, cfg toyConfig) *toyOpt                          { return &toyOpt{cfg: cfg} }
func toyEntry(cfg any) []core.OptimizationConfig {
	return []core.OptimizationConfig{{Kind: kindToy, Config: cfg}}
}
func toyOptions(cfg any) core.Options {
	return core.Options{HeapLimit: 8 << 20, Monitoring: true, SamplingInterval: 500, Observe: true,
		Optimizations: toyEntry(cfg)}
}

func (o *toyOpt) walk(c *snap.Codec) {
	c.U64(&o.polls)
	c.U64(&o.decisions)
}

func (o *toyOpt) Snapshot() snap.ComponentState { return snap.Encode("opt/toy", 1, o.walk) }

func (o *toyOpt) Restore(st snap.ComponentState) error {
	next := *o
	if err := snap.Decode(st, "opt/toy", 1, next.walk); err != nil {
		return err
	}
	*o = next
	return nil
}

func init() {
	opt.Register(opt.Describe(kindToy, "opt/toy", opt.Requirements{ExactOnly: true},
		func() toyConfig { return toyConfig{}.withDefaults() }, toyConfig.withDefaults, newToy))
}

func TestToyKindValidates(t *testing.T) {
	good := []any{nil, toyConfig{}, &toyConfig{Every: 2}, (*toyConfig)(nil)}
	for _, cfg := range good {
		if err := toyOptions(cfg).Validate(); err != nil {
			t.Errorf("config %#v rejected: %v", cfg, err)
		}
	}

	wrongType := toyOptions(opt.CodeLayoutConfig{})
	twice := toyOptions(nil)
	twice.Optimizations = append(twice.Optimizations, toyEntry(toyConfig{Every: 2})...)
	unmonitored := toyOptions(nil)
	unmonitored.Monitoring = false
	sampled := toyOptions(nil)
	sampled.Sampling = &runtime.SamplingConfig{}
	unknown := toyOptions(nil)
	unknown.Optimizations[0].Kind = "no-such-kind"
	for name, o := range map[string]core.Options{
		"wrong-typed config": wrongType, "duplicate entry": twice, "without monitoring": unmonitored,
		"exact-only kind in sampled mode": sampled, "unknown kind": unknown,
	} {
		if err := o.Validate(); !errors.Is(err, core.ErrBadOptions) {
			t.Errorf("%s: Validate() = %v, want core.ErrBadOptions", name, err)
		}
		u, _ := buildListProgram(t, 10)
		if _, err := core.NewSystemOpts(u, o); !errors.Is(err, core.ErrBadOptions) {
			t.Errorf("%s: NewSystemOpts() error = %v, want core.ErrBadOptions", name, err)
		}
	}
}

func TestToyKindFingerprint(t *testing.T) {
	without := toyOptions(nil)
	without.Optimizations = nil
	base := toyOptions(nil).Fingerprint()
	if base == without.Fingerprint() {
		t.Error("a toy entry did not perturb the fingerprint")
	}
	for _, cfg := range []any{toyConfig{}, toyConfig{Every: 4}, &toyConfig{Every: 4}} {
		if fp := toyOptions(cfg).Fingerprint(); fp != base {
			t.Errorf("config %#v fingerprints unlike the defaults it resolves to", cfg)
		}
	}
	if toyOptions(toyConfig{Every: 8}).Fingerprint() == base {
		t.Error("toy tuning did not perturb the fingerprint")
	}
	mixed := toyOptions(nil)
	mixed.Optimizations = append([]core.OptimizationConfig{{Kind: opt.KindSwPrefetch}}, mixed.Optimizations...)
	swapped := toyOptions(nil)
	swapped.Optimizations = append(swapped.Optimizations, core.OptimizationConfig{Kind: opt.KindSwPrefetch})
	if mixed.Fingerprint() != swapped.Fingerprint() {
		t.Error("entry order reached the fingerprint")
	}
}

func TestToyKindBuildsRunsAndCheckpoints(t *testing.T) {
	opts := toyOptions(toyConfig{Every: 2})
	ctx := context.Background()

	cold, main := buildSnapSystem(t, opts)
	managed := cold.OptManager.Optimizations()
	if len(managed) != 1 || managed[0].Kind() != kindToy {
		t.Fatalf("manager does not drive the toy kind: %v", managed)
	}
	if err := cold.RunContext(ctx, main, snapBudget); err != nil {
		t.Fatal(err)
	}
	rows := cold.OptStats()
	if len(rows) != 1 || rows[0].Kind != kindToy || rows[0].Decisions == 0 || rows[0].Reverts != 0 {
		t.Fatalf("OptStats() = %+v, want one toy row with decisions", rows)
	}

	// Pause, snapshot, restore into a fresh system, resume: the final
	// whole-system images — toy component included — and the decision
	// records must be equal.
	enc := pausedSnapshot(t, opts)
	sn, err := core.DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range sn.Components {
		found = found || c.Component == "opt/toy"
	}
	if !found {
		t.Fatal("snapshot carries no opt/toy component")
	}
	warm, _ := buildSnapSystem(t, opts)
	if _, err := core.RestoreSystem(warm, enc); err != nil {
		t.Fatal(err)
	}
	if err := warm.ResumeContext(ctx, snapBudget); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalImage(t, cold), finalImage(t, warm)) {
		t.Error("restored run's final image differs from the uninterrupted run's")
	}
	if !reflect.DeepEqual(cold.OptManager.Records(), warm.OptManager.Records()) {
		t.Errorf("restored run's records differ:\n%v\nvs\n%v", warm.OptManager.Records(), cold.OptManager.Records())
	}
}
