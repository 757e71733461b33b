package serve

import (
	"bytes"
	"context"
	"net/http"
	"time"

	"hpmvm/internal/api"
)

// This file implements POST /v1/stream: the same run contract as
// /v1/run, delivered as Server-Sent Events so long simulations report
// liveness instead of holding a silent connection (api/stream.go
// documents the frame sequence). The result frame carries byte-for-
// byte the /v1/run response body, so streaming never forks the
// determinism contract — a fact TestStreamResultByteIdentical pins.
// On a coordinator the stream runs at the edge while the one-shot run
// is routed to a worker, so workers stay streaming-agnostic.

// serveStream drives one run stream: queued frame, heartbeat progress
// frames while run executes, then meta + result (or a terminal error
// frame).
func serveStream(w http.ResponseWriter, r *http.Request, heartbeat time.Duration, queued api.StreamQueued, run func(context.Context) (*api.RunResult, error)) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	// Proxies must not buffer run streams: the heartbeat is the point.
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	if err := api.WriteStreamJSON(w, api.EventQueued, queued); err != nil {
		return
	}
	flush()

	type outcome struct {
		res *api.RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run(r.Context())
		done <- outcome{res, err}
	}()

	start := time.Now()
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := api.WriteStreamJSON(w, api.EventProgress, api.StreamProgress{
				ElapsedMS: time.Since(start).Milliseconds(),
			}); err != nil {
				// The client went away; the run keeps its own context and
				// aborts at its next safepoint.
				return
			}
			flush()
		case out := <-done:
			if out.err != nil {
				api.WriteStreamJSON(w, api.EventError, toAPIError(out.err))
				flush()
				return
			}
			api.WriteStreamJSON(w, api.EventMeta, api.StreamMeta{
				Cache:    out.res.Cache,
				Key:      out.res.Key,
				Snapshot: out.res.Snapshot,
				Worker:   out.res.Worker,
			})
			// The body is one JSON line plus a trailing newline; the SSE
			// data frame carries the line, the client restores the
			// newline — bytes.TrimSuffix + the client's re-append are
			// exact inverses, pinned by TestStreamResultByteIdentical.
			api.WriteStreamEvent(w, api.EventResult, bytes.TrimSuffix(out.res.Body, []byte("\n")))
			flush()
			return
		}
	}
}
