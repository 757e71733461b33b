package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"hpmvm/internal/api"
)

// TestServeSampled pins the sampled-serve contract: a sampled=true
// request runs the two-lane simulator and answers with an Estimated
// block (point estimates plus 95% confidence intervals), caches under
// its own key — never aliasing the exact run's result — and is exactly
// as deterministic as an exact run: repeats are byte-identical, cached
// or cold, even across fresh server instances.
func TestServeSampled(t *testing.T) {
	s := New(Config{Jobs: 2, QueueDepth: 8, CacheEntries: 8})
	h := s.Handler()

	const exactBody = `{"workload":"serve_tiny","seed":3}`
	const sampledBody = `{"workload":"serve_tiny","seed":3,"sampled":true}`

	exact := doReq(h, nil, http.MethodPost, api.PathRun, exactBody)
	sampled := doReq(h, nil, http.MethodPost, api.PathRun, sampledBody)
	if exact.Code != http.StatusOK || sampled.Code != http.StatusOK {
		t.Fatalf("statuses %d / %d: %s / %s", exact.Code, sampled.Code,
			exact.Body.String(), sampled.Body.String())
	}

	// Distinct simulations, distinct content addresses.
	if ek, sk := exact.Header().Get("X-Hpmvmd-Key"), sampled.Header().Get("X-Hpmvmd-Key"); ek == sk {
		t.Errorf("sampled request shares the exact request's cache key %s", ek)
	}
	if d := sampled.Header().Get("X-Hpmvmd-Cache"); d != "miss" {
		t.Errorf("first sampled request disposition %q, want miss (must not hit the exact entry)", d)
	}

	var eresp, sresp api.RunResponse
	if err := json.Unmarshal(exact.Body.Bytes(), &eresp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sampled.Body.Bytes(), &sresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Sampled || eresp.Estimated != nil {
		t.Errorf("exact response carries sampled fields: sampled=%t estimated=%v", eresp.Sampled, eresp.Estimated)
	}
	if !sresp.Sampled || sresp.Estimated == nil {
		t.Fatalf("sampled response missing its Estimated block: %s", sampled.Body.String())
	}
	est := sresp.Estimated
	if est.Cycles <= 0 || est.Regions < 1 {
		t.Errorf("degenerate estimate: cycles %.0f from %d regions", est.Cycles, est.Regions)
	}
	if est.CyclesLo > est.Cycles || est.CyclesHi < est.Cycles {
		t.Errorf("95%% interval [%.0f, %.0f] does not bracket estimate %.0f",
			est.CyclesLo, est.CyclesHi, est.Cycles)
	}
	if est.CyclesLo < float64(est.ServiceCycles) {
		t.Errorf("interval lower bound %.0f below exactly counted service cycles %d",
			est.CyclesLo, est.ServiceCycles)
	}
	// Functional warming preserves the architectural stream: the sampled
	// run computes the same answer the exact run does.
	if len(sresp.Results) != 1 || sresp.Results[0] != eresp.Results[0] {
		t.Errorf("sampled results %v differ from exact %v", sresp.Results, eresp.Results)
	}

	// Repeat: cache hit, byte-identical.
	again := doReq(h, nil, http.MethodPost, api.PathRun, sampledBody)
	if again.Code != http.StatusOK || again.Header().Get("X-Hpmvmd-Cache") != "hit" {
		t.Fatalf("sampled repeat: status %d disposition %q, want 200/hit",
			again.Code, again.Header().Get("X-Hpmvmd-Cache"))
	}
	if !bytes.Equal(again.Body.Bytes(), sampled.Body.Bytes()) {
		t.Error("cached sampled body differs from cold body")
	}

	// Determinism across instances: a fresh server (fresh engine, fresh
	// cache) must produce the identical bytes for the identical request.
	fresh := doReq(New(Config{}).Handler(), nil, http.MethodPost, api.PathRun, sampledBody)
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh-server sampled run: status %d: %s", fresh.Code, fresh.Body.String())
	}
	if !bytes.Equal(fresh.Body.Bytes(), sampled.Body.Bytes()) {
		t.Error("sampled response differs across fresh server instances")
	}
}

// TestServeSampledValidation pins the request-level guard: sampled
// systems refuse Snapshot, so sampled=true combined with
// warm_start_cycles must bounce as a 400 before any simulation starts.
func TestServeSampledValidation(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rr := doReq(h, nil, http.MethodPost, api.PathRun,
		`{"workload":"serve_tiny","seed":1,"sampled":true,"warm_start_cycles":100000}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("sampled+warm_start: status %d, want 400: %s", rr.Code, rr.Body.String())
	}
	var eb api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Message == "" {
		t.Fatalf("400 body is not the JSON error envelope: %q", rr.Body.String())
	}
	if eb.Code != api.CodeBadRequest {
		t.Errorf("400 code = %q, want %q", eb.Code, api.CodeBadRequest)
	}
	if got := s.cExecuted.Value(); got != 0 {
		t.Errorf("rejected request still executed %d runs", got)
	}
}
