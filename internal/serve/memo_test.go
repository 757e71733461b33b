package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hpmvm/internal/api"
)

// memoBodies are one request of each shape the memo must replay
// exactly: hot (the cache-hit path), cold, warm, sampled, observe and
// track_fields.
var memoBodies = map[string]string{
	"hot":          `{"workload":"serve_tiny","seed":1}`,
	"cold":         `{"workload":"serve_tiny","seed":21,"monitoring":true,"interval":1000}`,
	"warm":         `{"workload":"serve_tiny","seed":22,"monitoring":true,"interval":1000,"warm_start_cycles":100000}`,
	"sampled":      `{"workload":"serve_tiny","seed":23,"sampled":true}`,
	"observe":      `{"workload":"serve_tiny","seed":24,"observe":true}`,
	"track_fields": `{"workload":"serve_tiny","seed":25,"monitoring":true,"interval":1000,"track_fields":["Tiny::a","Tiny::b"]}`,
}

// forget empties r's memo, so the next request of any body resolves
// afresh.
func (r *Resolver) forget() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memo = newLRU[string, resolved](memoEntries)
}

// recall returns r's memoized resolution of body.
func (r *Resolver) recall(body []byte) (resolved, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memo.get(string(body))
}

// memoLen is the number of bodies r has memoized.
func (r *Resolver) memoLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memo.len()
}

// TestMemoHitByteIdentical sends each body twice to two servers and
// two fleets. One of each answers the repeat from its memo; the other
// forgets its memo first and resolves the repeat afresh. Status,
// headers and body bytes must agree, first answer and repeat alike.
func TestMemoHitByteIdentical(t *testing.T) {
	type owner struct {
		resolver *Resolver
		h        http.Handler
	}
	owners := func() map[string]owner {
		srv := New(Config{Jobs: 1})
		f, _, fh := newTestFleet(t, 2, Config{Jobs: 1})
		return map[string]owner{"server": {srv.resolver, srv.Handler()}, "fleet": {f.resolver, fh}}
	}
	memo, fresh := owners(), owners()
	for shape, body := range memoBodies {
		for name := range memo {
			for i, repeat := range []string{"first", "repeat"} {
				if i == 1 {
					fresh[name].resolver.forget()
				}
				got := doReq(memo[name].h, nil, http.MethodPost, api.PathRun, body)
				want := doReq(fresh[name].h, nil, http.MethodPost, api.PathRun, body)
				if got.Code != http.StatusOK || got.Code != want.Code {
					t.Fatalf("%s %s %s: status %d, fresh %d: %s", name, shape, repeat, got.Code, want.Code, got.Body.String())
				}
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("%s %s %s: body differs from a fresh resolve\nmemo:  %s\nfresh: %s", name, shape, repeat, got.Body, want.Body)
				}
				if g, w := fmt.Sprint(got.Header()), fmt.Sprint(want.Header()); g != w {
					t.Errorf("%s %s %s: headers %s, fresh %s", name, shape, repeat, g, w)
				}
			}
			if _, ok := memo[name].resolver.recall([]byte(body)); !ok {
				t.Errorf("%s %s: body was not memoized", name, shape)
			}
		}
	}
}

// TestMemoHoldsSuccessesOnly sends every malformed and unresolvable body
// twice: each answer is the same error envelope both times, and the
// memo stays empty. serve.requests counts what it always counted —
// every body that decodes, resolvable or not, memoized or not.
func TestMemoHoldsSuccessesOnly(t *testing.T) {
	s := New(Config{Jobs: 1})
	h := s.Handler()
	undecodable := []string{`{`, `{"workload":"serve_tiny","bogus":1}`, `{"workload":"serve_tiny"}{"workload":"serve_slow"}`, ``}
	unresolvable := []string{
		`{"workload":"nope"}`,
		`{"workload":"serve_tiny","version":"v0"}`,
		`{"workload":"serve_tiny","collector":"zgc"}`,
		`{"workload":"serve_tiny","heap_factor":-1}`,
		`{"workload":"serve_tiny","sampled":true,"warm_start_cycles":10}`,
	}
	for _, path := range []string{api.PathRun, api.PathStream} {
		for _, body := range append(append([]string{}, undecodable...), unresolvable...) {
			first := doReq(h, nil, http.MethodPost, path, body)
			second := doReq(h, nil, http.MethodPost, path, body)
			if first.Code == http.StatusOK || first.Code != second.Code || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Errorf("%s %q: answers %d %s then %d %s", path, body, first.Code, first.Body, second.Code, second.Body)
			}
		}
	}
	if n := s.resolver.memoLen(); n != 0 {
		t.Errorf("memo holds %d entries after failures only", n)
	}

	for range 3 {
		if rr := doReq(h, nil, http.MethodPost, api.PathRun, memoBodies["hot"]); rr.Code != http.StatusOK {
			t.Fatalf("hot run: %d %s", rr.Code, rr.Body.String())
		}
	}
	// Each unresolvable body was sent twice on each of two paths, and
	// the hot body three times.
	if got, want := s.cRequests.Value(), uint64(4*len(unresolvable)+3); got != want {
		t.Errorf("serve.requests = %d, want %d", got, want)
	}
	if n := s.resolver.memoLen(); n != 1 {
		t.Errorf("memo holds %d entries after one successful body, want 1", n)
	}
}

// TestMemoBypassesLargeBodies: a body over memoMaxBody (here padded
// with the whitespace JSON allows around a value) is served, and
// served again, without entering the memo; one of exactly memoMaxBody
// bytes enters it.
func TestMemoBypassesLargeBodies(t *testing.T) {
	s := New(Config{Jobs: 1})
	h := s.Handler()
	hot := memoBodies["hot"]
	large := hot + strings.Repeat(" ", memoMaxBody+1-len(hot))
	var want []byte
	for range 2 {
		rr := doReq(h, nil, http.MethodPost, api.PathRun, large)
		if rr.Code != http.StatusOK {
			t.Fatalf("large body: %d %s", rr.Code, rr.Body.String())
		}
		if want != nil && !bytes.Equal(rr.Body.Bytes(), want) {
			t.Error("large body answered different bytes on its repeat")
		}
		want = rr.Body.Bytes()
	}
	if n := s.resolver.memoLen(); n != 0 {
		t.Errorf("memo holds %d entries after a %d-byte body, want 0", n, len(large))
	}
	if rr := doReq(h, nil, http.MethodPost, api.PathRun, large[:memoMaxBody]); rr.Code != http.StatusOK {
		t.Fatalf("limit-sized body: %d %s", rr.Code, rr.Body.String())
	}
	if n := s.resolver.memoLen(); n != 1 {
		t.Errorf("memo holds %d entries after a %d-byte body, want 1", n, memoMaxBody)
	}
}

// TestMemoBounded resolves more distinct limit-sized bodies than the
// memo holds: its length never exceeds memoEntries, and its keys never
// hold more than the memoEntries × memoMaxBody bytes DESIGN §12 states
// as its worst case (1 MiB).
func TestMemoBounded(t *testing.T) {
	if memoEntries*memoMaxBody > 1<<20 {
		t.Fatalf("memo worst case %d × %d bytes exceeds the 1 MiB DESIGN §12 states", memoEntries, memoMaxBody)
	}
	r := newResolver()
	for seed := range memoEntries + memoEntries/2 {
		body := fmt.Sprintf(`{"workload":"serve_tiny","seed":%d}`, seed)
		body += strings.Repeat(" ", memoMaxBody-len(body))
		if _, err := r.request([]byte(body), func() {}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := r.memoLen(); n > memoEntries {
			t.Fatalf("memo holds %d entries, capacity %d", n, memoEntries)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keyBytes := 0
	for key := range r.memo.m {
		keyBytes += len(key)
	}
	if r.memo.len() != memoEntries || keyBytes > memoEntries*memoMaxBody {
		t.Errorf("memo holds %d entries keyed by %d bytes, want %d entries within %d bytes",
			r.memo.len(), keyBytes, memoEntries, memoEntries*memoMaxBody)
	}
}

// TestMemoConcurrentColdRequests sends identical cold requests of every
// shape at once through /v1/run and /v1/stream, on a server and on a
// fleet (there also pinned to each worker, so two workers simulate the
// request the coordinator memoized at once). Run under -race it shows
// that nothing downstream of the edge writes to a memoized
// resolution; every answer must carry the same result bytes.
func TestMemoConcurrentColdRequests(t *testing.T) {
	srv := New(Config{Jobs: 2})
	_, _, fh := newTestFleet(t, 2, Config{Jobs: 2})
	for name, h := range map[string]http.Handler{"server": srv.Handler(), "fleet": fh} {
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			bodies = map[string][][]byte{}
		)
		record := func(shape string, body []byte) {
			mu.Lock()
			defer mu.Unlock()
			bodies[shape] = append(bodies[shape], body)
		}
		for shape, body := range memoBodies {
			pins := []string{"", ""} // two unpinned copies of each request
			if name == "fleet" {
				pins = []string{"", "w0", "w1"}
			}
			for _, pin := range pins {
				wg.Add(2)
				go func() {
					defer wg.Done()
					req := httptest.NewRequest(http.MethodPost, api.PathRun, strings.NewReader(body))
					if pin != "" {
						req.Header.Set(api.HeaderRoute, pin)
					}
					rr := doRaw(h, req)
					if rr.Code != http.StatusOK {
						t.Errorf("%s %s run: %d %s", name, shape, rr.Code, rr.Body.String())
						return
					}
					record(shape, rr.Body.Bytes())
				}()
				go func() {
					defer wg.Done()
					req := httptest.NewRequest(http.MethodPost, api.PathStream, strings.NewReader(body))
					if pin != "" {
						req.Header.Set(api.HeaderRoute, pin)
					}
					rr := doRaw(h, req)
					dec := api.NewStreamDecoder(rr.Body)
					for {
						ev, err := dec.Next()
						if err != nil {
							t.Errorf("%s %s stream: no result frame: %v", name, shape, err)
							return
						}
						if ev.Event == api.EventResult {
							record(shape, append(ev.Data, '\n'))
							return
						}
					}
				}()
			}
		}
		wg.Wait()
		for shape, got := range bodies {
			for _, b := range got[1:] {
				if !bytes.Equal(b, got[0]) {
					t.Errorf("%s %s: concurrent identical requests answered different bytes", name, shape)
				}
			}
		}
	}
}

// BenchmarkEdgeRunHit is the edge's hit path without the network: the
// primed hot body POSTed through Server.Handler and through a fleet
// over LocalBackends, each answer a result-cache hit whose decode and
// resolution come from the memo.
func BenchmarkEdgeRunHit(b *testing.B) {
	srv := New(Config{Jobs: 1})
	_, _, fh := newTestFleet(b, 2, Config{Jobs: 1})
	body := memoBodies["hot"]
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{{"server", srv.Handler()}, {"fleet", fh}} {
		b.Run(tc.name, func(b *testing.B) {
			for range 2 { // prime the result cache and the memo
				if rr := doReq(tc.h, nil, http.MethodPost, api.PathRun, body); rr.Code != http.StatusOK {
					b.Fatalf("priming run: %d %s", rr.Code, rr.Body.String())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				rr := httptest.NewRecorder()
				tc.h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, api.PathRun, strings.NewReader(body)))
				if rr.Code != http.StatusOK {
					b.Fatalf("hit: %d %s", rr.Code, rr.Body.String())
				}
			}
		})
	}
}
