package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"hpmvm/internal/api"
)

// stripKey unmarshals a response body and removes the request key —
// the only field that legitimately differs between a cold run and its
// warm-started equivalent (the key encodes warm_start_cycles).
func stripKey(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, body)
	}
	delete(m, "key")
	return m
}

// TestServeWarmStart drives the snapshot-prefix cache end to end:
// store on first warm request, hit on a second request sharing the
// prefix (divergent max_cycles), simulated numbers identical to the
// cold run throughout, and counters surfaced in /statsz.
func TestServeWarmStart(t *testing.T) {
	s := New(Config{Jobs: 2})
	h := s.Handler()

	const base = `"workload":"serve_tiny","seed":5,"monitoring":true,"interval":1000`
	cold := doReq(h, nil, http.MethodPost, api.PathRun, `{`+base+`}`)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold run: %d %s", cold.Code, cold.Body.String())
	}

	warmBody := `{` + base + `,"warm_start_cycles":100000}`
	w1 := doReq(h, nil, http.MethodPost, api.PathRun, warmBody)
	if w1.Code != http.StatusOK {
		t.Fatalf("warm run: %d %s", w1.Code, w1.Body.String())
	}
	if got := w1.Header().Get("X-Hpmvmd-Snapshot"); got != "store" {
		t.Errorf("first warm request snapshot disposition = %q, want store", got)
	}
	if got := w1.Header().Get("X-Hpmvmd-Cache"); got != "miss" {
		t.Errorf("first warm request cache disposition = %q, want miss", got)
	}
	// An exact warm start is byte-identical to the cold run modulo the
	// request key.
	if c, w := stripKey(t, cold.Body.Bytes()), stripKey(t, w1.Body.Bytes()); !reflect.DeepEqual(c, w) {
		t.Errorf("warm response differs from cold:\ncold %v\nwarm %v", c, w)
	}

	// Divergent request: same prefix, different cycle budget — a result
	// cache miss that must reuse the stored snapshot.
	w2 := doReq(h, nil, http.MethodPost, api.PathRun, `{`+base+`,"warm_start_cycles":100000,"max_cycles":400000000}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("divergent warm run: %d %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get("X-Hpmvmd-Cache"); got != "miss" {
		t.Errorf("divergent request cache disposition = %q, want miss", got)
	}
	if got := w2.Header().Get("X-Hpmvmd-Snapshot"); got != "hit" {
		t.Errorf("divergent request snapshot disposition = %q, want hit", got)
	}
	if a, b := stripKey(t, w1.Body.Bytes()), stripKey(t, w2.Body.Bytes()); !reflect.DeepEqual(a, b) {
		t.Errorf("snapshot hit response differs from store response")
	}

	// Repeating the first warm request replays the result cache and
	// never touches the snapshot layer.
	w3 := doReq(h, nil, http.MethodPost, api.PathRun, warmBody)
	if got := w3.Header().Get("X-Hpmvmd-Cache"); got != "hit" {
		t.Errorf("repeat cache disposition = %q, want hit", got)
	}
	if got := w3.Header().Get("X-Hpmvmd-Snapshot"); got != "" {
		t.Errorf("result-cache hit carries snapshot header %q", got)
	}
	if !reflect.DeepEqual(w1.Body.Bytes(), w3.Body.Bytes()) {
		t.Error("replayed warm response not byte-identical")
	}

	st := s.Stats()
	if st.Snapshots.Stores != 1 || st.Snapshots.Hits != 1 || st.Snapshots.Entries != 1 {
		t.Errorf("snapshot stats = %+v, want 1 store / 1 hit / 1 entry", st.Snapshots)
	}
}

// TestServeWarmStartValidation pins the 400 on a warm-start point at
// or beyond the cycle budget.
func TestServeWarmStartValidation(t *testing.T) {
	s := New(Config{Jobs: 1})
	h := s.Handler()
	rr := doReq(h, nil, http.MethodPost, api.PathRun,
		`{"workload":"serve_tiny","warm_start_cycles":100,"max_cycles":100}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("warm_start_cycles >= max_cycles: %d, want 400", rr.Code)
	}
}
