package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"hpmvm/internal/api"
)

// This file is the one mount of the /v1 contract. A worker (Server)
// and a coordinator (Fleet) answer the same five endpoints with the
// same bytes, so both hand out this edge and fill in only what differs
// between them: how a resolved request is run, what healthy means,
// what statsz reports, and which counters tick.

// streamHeartbeat is the default /v1/stream progress-frame interval.
const streamHeartbeat = time.Second

// edge serves the five /v1 endpoints over the hooks its owner set.
type edge struct {
	resolver  *Resolver
	heartbeat time.Duration

	// run executes one resolved request from the exact body it was
	// resolved from; pin is the HeaderRoute value.
	run func(ctx context.Context, body []byte, res resolved, pin string) (*api.RunResult, error)
	// healthz is the liveness verdict and its JSON body.
	healthz func() (ok bool, body string)
	// statsz is the value /v1/statsz renders.
	statsz func(ctx context.Context) any
	// onRequest ticks per decoded request, onStream per admitted stream.
	onRequest, onStream func()
}

// Handler returns the service mux: the /v1 contract.
func (e *edge) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathRun, func(w http.ResponseWriter, r *http.Request) { e.handleRun(w, r, false) })
	mux.HandleFunc(api.PathStream, func(w http.ResponseWriter, r *http.Request) { e.handleRun(w, r, true) })
	mux.HandleFunc(api.PathHealthz, e.handleHealthz)
	mux.HandleFunc(api.PathStatsz, func(w http.ResponseWriter, r *http.Request) {
		writeIndented(w, e.statsz(r.Context()))
	})
	mux.HandleFunc(api.PathWorkloads, func(w http.ResponseWriter, _ *http.Request) {
		writeIndented(w, e.resolver.workloads())
	})
	return mux
}

// handleRun is POST /v1/run and, with stream set, POST /v1/stream —
// the same run delivered as Server-Sent Events. The body is read once
// and resolved here, before any worker sees it: bad requests bounce
// without burning a round trip, and the resolution yields the exact
// keys the workers themselves compute. Pre-admission failures answer
// as plain JSON errors; a stream only opens once the request is valid.
func (e *edge) handleRun(w http.ResponseWriter, r *http.Request, stream bool) {
	body, err := readBody(w, r)
	var res resolved
	if err == nil {
		res, err = e.resolver.request(body, e.onRequest)
	}
	if err != nil {
		writeAPIError(w, toAPIError(err))
		return
	}
	pin := r.Header.Get(api.HeaderRoute)
	if stream {
		e.onStream()
		queued := api.StreamQueued{Version: api.Version, Workload: res.meta.name, Key: res.key}
		serveStream(w, r, e.heartbeat, queued, func(ctx context.Context) (*api.RunResult, error) {
			return e.run(ctx, body, res, pin)
		})
		return
	}
	result, err := e.run(r.Context(), body, res, pin)
	if err != nil {
		writeAPIError(w, toAPIError(err))
		return
	}
	writeRunResult(w, result)
}

// handleHealthz is GET /v1/healthz: 200 with the owner's verdict body
// while it is healthy, 503 otherwise.
func (e *edge) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ok, body := e.healthz()
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, body)
}

// writeIndented renders the statsz and workloads documents.
func writeIndented(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
