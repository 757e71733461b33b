package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hpmvm/internal/api"
	_ "hpmvm/internal/bench/workloads"
	"hpmvm/internal/client"
	"hpmvm/internal/serve"
)

// flipBackend is a worker that answers every run with one response
// byte flipped.
type flipBackend struct{ serve.Backend }

func (b flipBackend) RunBody(ctx context.Context, body []byte) (*api.RunResult, error) {
	res, err := b.Backend.RunBody(ctx, body)
	if err != nil {
		return nil, err
	}
	flipped := *res
	flipped.Body = append([]byte(nil), res.Body...)
	flipped.Body[len(flipped.Body)/2] ^= 1
	return &flipped, nil
}

// TestProbeWorkers drives the pinned per-worker probe against a
// coordinator over two in-process workers: it passes on an honest
// fleet, and fails when a worker answers different bytes or when the
// coordinator serves a pinned request from another worker.
func TestProbeWorkers(t *testing.T) {
	req := api.Request{Workload: "fop", Seed: 1}
	cases := []struct {
		name    string
		worker1 func(serve.Backend) serve.Backend
		edge    func(http.Handler) http.Handler
		wantErr string
	}{
		{name: "honest fleet"},
		{name: "flipped byte", wantErr: "different bytes",
			worker1: func(b serve.Backend) serve.Backend { return flipBackend{b} }},
		{name: "pin ignored", wantErr: "served by",
			edge: func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					r.Header.Del(api.HeaderRoute)
					h.ServeHTTP(w, r)
				})
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			backends := []serve.Backend{
				serve.NewLocalBackend("w0", serve.New(serve.Config{})),
				serve.NewLocalBackend("w1", serve.New(serve.Config{})),
			}
			if tc.worker1 != nil {
				backends[1] = tc.worker1(backends[1])
			}
			f, err := serve.NewFleet(serve.FleetConfig{Backends: backends, HealthInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			h := f.Handler()
			if tc.edge != nil {
				h = tc.edge(h)
			}
			ts := httptest.NewServer(h)
			defer ts.Close()

			ctx := context.Background()
			c := client.New(client.Config{BaseURL: ts.URL})
			// The reference response comes from the honest worker.
			want, err := client.New(client.Config{BaseURL: ts.URL, Route: "w0"}).Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			n, err := probeWorkers(ctx, c, ts.URL, req, want.Body)
			switch {
			case tc.wantErr == "" && (err != nil || n != 2):
				t.Errorf("probed %d workers, err %v; want 2, nil", n, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("err %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
