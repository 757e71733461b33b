package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
	"hpmvm/internal/serve"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

// The client must be usable as a fleet backend: this is the contract
// that makes remote worker processes and in-process servers
// interchangeable to the coordinator.
var _ serve.Backend = (*Client)(nil)

// The production registry lives behind the cmd binaries' blank import;
// like the serve tests, the client tests register their own tiny
// deterministic workload (in init, before serve.New freezes the
// registry).
func init() {
	bench.Register("serve_tiny", bench.Meta{MinHeap: 1 << 20}, func() *bench.Program {
		const n = 50_000
		u := classfile.NewUniverse()
		cl := u.DefineClass("Tiny", nil)
		main := u.AddMethod(cl, "main", false, nil, classfile.KindVoid)
		b := bytecode.NewBuilder(u, main)
		b.Local("i", classfile.KindInt)
		b.Local("s", classfile.KindInt)
		b.Label("loop")
		b.Load("i").Const(n).If(bytecode.OpIfGE, "done")
		b.Load("s").Load("i").Add().Store("s")
		b.Inc("i", 1)
		b.Goto("loop")
		b.Label("done")
		b.Load("s").Result()
		b.Return()
		b.MustBuild()
		u.Layout()
		return &bench.Program{U: u, Entry: main, Expected: []int64{n * (n - 1) / 2}}
	})
}

// TestClientAgainstServer runs the typed client against a real server
// handler end to end: run, decoded response, statsz, healthz,
// workloads, stream.
func TestClientAgainstServer(t *testing.T) {
	srv := serve.New(serve.Config{Jobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, Name: "w0"})

	req := api.Request{Workload: "serve_tiny", Seed: 3}
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Cache != "miss" || res.Key == "" {
		t.Errorf("cold run metadata = %+v, want miss with a key", res)
	}

	rr, res2, err := c.RunResponse(context.Background(), req)
	if err != nil {
		t.Fatalf("RunResponse: %v", err)
	}
	if res2.Cache != "hit" {
		t.Errorf("repeat disposition %q, want hit", res2.Cache)
	}
	if !bytes.Equal(res.Body, res2.Body) {
		t.Error("cached body differs from cold body")
	}
	if rr.Version != api.Version || rr.Workload != "serve_tiny" {
		t.Errorf("decoded response version %q workload %q", rr.Version, rr.Workload)
	}

	// Stream: identical bytes, with at least queued and meta updates.
	events := map[string]int{}
	sres, err := c.RunStream(context.Background(), req, func(u StreamUpdate) { events[u.Event]++ })
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if !bytes.Equal(sres.Body, res.Body) {
		t.Error("streamed body differs from one-shot body")
	}
	if sres.Key != res.Key || sres.Cache != "hit" {
		t.Errorf("stream metadata = %+v", sres)
	}
	if events[api.EventQueued] != 1 || events[api.EventMeta] != 1 {
		t.Errorf("stream updates = %v, want one queued and one meta", events)
	}

	if err := c.Healthz(context.Background()); err != nil {
		t.Errorf("Healthz: %v", err)
	}
	st, err := c.Statsz(context.Background())
	if err != nil {
		t.Fatalf("Statsz: %v", err)
	}
	if st.Version != api.Version || st.Cache.Hits == 0 {
		t.Errorf("statsz = version %q hits %d", st.Version, st.Cache.Hits)
	}
	rows, err := c.Workloads(context.Background())
	if err != nil || len(rows) == 0 {
		t.Fatalf("Workloads: %v (%d rows)", err, len(rows))
	}
}

// TestClientDecodesEnvelope: API failures surface as *api.Error with
// the server's code intact.
func TestClientDecodesEnvelope(t *testing.T) {
	srv := serve.New(serve.Config{Jobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})

	_, err := c.Run(context.Background(), api.Request{Workload: "nope"})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T %v, want *api.Error", err, err)
	}
	if ae.Code != api.CodeUnknownWorkload {
		t.Errorf("code = %q, want %q", ae.Code, api.CodeUnknownWorkload)
	}
}

// TestClientRetriesQueueFull: the client waits out 429 refusals,
// honoring the retry_after hint, and succeeds when capacity frees up.
func TestClientRetriesQueueFull(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathRun, func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"version":"v1","error":"queue full","code":"queue_full"}` + "\n"))
			return
		}
		w.Header().Set(api.HeaderCache, "miss")
		w.Write([]byte(`{"version":"v1","workload":"serve_tiny"}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxRetries: 4, RetryBase: time.Millisecond})
	start := time.Now()
	res, err := c.Run(context.Background(), api.Request{Workload: "serve_tiny"})
	if err != nil {
		t.Fatalf("Run after retries: %v", err)
	}
	if calls != 3 {
		t.Errorf("server saw %d calls, want 3", calls)
	}
	if res.Cache != "miss" {
		t.Errorf("metadata = %+v", res)
	}
	// Two retries honoring the 1s Retry-After header hint.
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Errorf("retries took %v, want >= 2s (Retry-After hint ignored)", elapsed)
	}
}

// TestClientRetryBudgetExhausted: persistent refusals surface the last
// envelope after MaxRetries attempts.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathRun, func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"version":"v1","error":"queue full","code":"queue_full"}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxRetries: 2, RetryBase: time.Millisecond})
	_, err := c.Run(context.Background(), api.Request{Workload: "serve_tiny"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeQueueFull {
		t.Fatalf("error %v, want queue_full envelope", err)
	}
	if calls != 3 {
		t.Errorf("server saw %d calls, want 3 (1 + 2 retries)", calls)
	}
}

// TestClientNoRetryOnBadRequest: client errors are terminal, not
// retried.
func TestClientNoRetryOnBadRequest(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathRun, func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"version":"v1","error":"bad","code":"bad_request"}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, RetryBase: time.Millisecond})
	_, err := c.Run(context.Background(), api.Request{Workload: "serve_tiny"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest {
		t.Fatalf("error %v, want bad_request envelope", err)
	}
	if calls != 1 {
		t.Errorf("server saw %d calls, want 1", calls)
	}
}

// TestClientNonEnvelopeError: answers from something that is not
// hpmvmd (proxy error pages) become CodeUnavailable.
func TestClientNonEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, MaxRetries: -1})
	_, err := c.Run(context.Background(), api.Request{Workload: "serve_tiny"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("error %v, want unavailable envelope", err)
	}
}

// TestClientRoutePin: the Route config pins runs via the
// X-Hpmvmd-Route header.
func TestClientRoutePin(t *testing.T) {
	var gotPin string
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathRun, func(w http.ResponseWriter, r *http.Request) {
		gotPin = r.Header.Get(api.HeaderRoute)
		w.Write([]byte(`{"version":"v1"}` + "\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, Route: "w2"})
	if _, err := c.Run(context.Background(), api.Request{Workload: "serve_tiny"}); err != nil {
		t.Fatal(err)
	}
	if gotPin != "w2" {
		t.Errorf("route pin header = %q, want w2", gotPin)
	}
}

// TestClientStreamError: an in-stream error frame surfaces as
// *api.Error.
func TestClientStreamError(t *testing.T) {
	srv := serve.New(serve.Config{Jobs: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Drain()
	c := New(Config{BaseURL: ts.URL})
	_, err := c.RunStream(context.Background(), api.Request{Workload: "serve_tiny", Seed: 1}, nil)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeDraining {
		t.Fatalf("stream error = %v, want draining envelope", err)
	}
}

// TestClientReusesConnections drives hot requests through a one-worker
// coordinator whose backend is a Client, from more goroutines than the
// default transport keeps idle connections per host. Once a first wave
// has opened the connections it needs, the worker must see no more new
// connections than requests ever ran at once: a pool that kept fewer
// than that would open and close one for every request beyond it.
func TestClientReusesConnections(t *testing.T) {
	const concurrency, perWorker = 8, 250
	srv := serve.New(serve.Config{Jobs: 1})
	var newConns atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	f, err := serve.NewFleet(serve.FleetConfig{
		Backends:       []serve.Backend{New(Config{BaseURL: ts.URL, Name: "w0"})},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handler()
	const body = `{"workload":"serve_tiny","seed":9}`
	wave := func(n int) {
		var wg sync.WaitGroup
		for range concurrency {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range n {
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, api.PathRun, strings.NewReader(body)))
					if rr.Code != http.StatusOK {
						t.Errorf("run: status %d: %s", rr.Code, rr.Body.String())
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	wave(4)
	warm := newConns.Load()
	wave(perWorker)
	if n := newConns.Load() - warm; n > concurrency {
		t.Errorf("%d hot requests at concurrency %d opened %d more worker connections after the first wave, want at most %d",
			concurrency*perWorker, concurrency, n, concurrency)
	}
}

// TestClientStreamRetryAfterHeader: a pre-admission refusal on
// /v1/stream that lacks the envelope still carries the Retry-After
// header's hint, as a refusal on /v1/run does.
func TestClientStreamRetryAfterHeader(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, MaxRetries: -1})
	_, err := c.RunStream(context.Background(), api.Request{Workload: "serve_tiny"}, nil)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable || ae.RetryAfter != 3 {
		t.Fatalf("stream refusal = %#v (err %v), want unavailable with retry_after 3", ae, err)
	}
}

// TestFleetRelaysRequestBytes: a coordinator that reaches its worker
// through a Client forwards each request body exactly as the client
// sent it, whitespace and key order included, and answers with the
// bytes a single server answers.
func TestFleetRelaysRequestBytes(t *testing.T) {
	srv := serve.New(serve.Config{Jobs: 1})
	var (
		mu       sync.Mutex
		received [][]byte
	)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("worker read: %v", err)
		}
		mu.Lock()
		received = append(received, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, r)
	}))
	defer worker.Close()
	f, err := serve.NewFleet(serve.FleetConfig{
		Backends:       []serve.Backend{New(Config{BaseURL: worker.URL, Name: "w0"})},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	single := serve.New(serve.Config{Jobs: 1}).Handler()
	for _, body := range []string{
		"{ \"seed\" : 31,\n\t\"workload\":\"serve_tiny\" }",
		`{"monitoring":true,"interval":1000,"seed":32,"workload":"serve_tiny"}` + "\n\n",
		"\t{\"seed\":33, \"warm_start_cycles\":100000, \"workload\":\"serve_tiny\"}",
	} {
		mu.Lock()
		received = nil
		mu.Unlock()
		got := httptest.NewRecorder()
		f.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, api.PathRun, strings.NewReader(body)))
		want := httptest.NewRecorder()
		single.ServeHTTP(want, httptest.NewRequest(http.MethodPost, api.PathRun, strings.NewReader(body)))
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("%q: fleet %d, server %d: %s", body, got.Code, want.Code, got.Body.String())
		}
		mu.Lock()
		if len(received) != 1 || string(received[0]) != body {
			t.Errorf("worker received %q, client sent %q", received, body)
		}
		mu.Unlock()
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%q: fleet answered other bytes than a single server", body)
		}
	}
}
