package workloads

import (
	"testing"

	"hpmvm/internal/bench"
)

// TestEachWorkloadQuick runs every registered workload once at default
// config (opt level 2, GenMS, no monitoring) and reports basic stats.
func TestEachWorkloadQuick(t *testing.T) {
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runOne(t, name, bench.RunConfig{})
			t.Logf("%-10s cycles=%11d instr=%10d L1=%9d L2=%8d minor=%2d major=%2d results=%v",
				name, res.Cycles, res.Instret, res.Cache.L1Misses, res.Cache.L2Misses,
				res.MinorGCs, res.MajorGCs, res.Results)
		})
	}
}

// TestBuiltProgramsCarryDeclaredMeta pins the registry contract the
// serve resolver, hpmvm -list and the experiments rely on when they
// read metadata without building: every built Program carries the name
// and Meta its workload registered, and a declared hot field exists in
// the built universe.
func TestBuiltProgramsCarryDeclaredMeta(t *testing.T) {
	for _, name := range bench.Names() {
		meta, ok := bench.MetaOf(name)
		if !ok || meta.Description == "" || meta.MinHeap == 0 {
			t.Errorf("%s: declared meta %+v (registered %t)", name, meta, ok)
		}
		b, _ := bench.Get(name)
		prog := b()
		if prog.Name != name || prog.Meta != meta {
			t.Errorf("%s: built Program carries %q %+v, declared %+v", name, prog.Name, prog.Meta, meta)
		}
		if meta.HotFieldName == "" {
			continue
		}
		found := false
		for _, f := range prog.U.Fields() {
			found = found || f.QualifiedName() == meta.HotFieldName
		}
		if !found {
			t.Errorf("%s: hot field %s is not in the built universe", name, meta.HotFieldName)
		}
	}
	if meta, _ := bench.MetaOf("db"); meta.HotFieldName != "String::value" {
		t.Errorf("db tracks %q, want String::value (Figures 7 and 8)", meta.HotFieldName)
	}
}
