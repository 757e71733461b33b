package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
)

// collectStream drives one request through h and decodes the SSE
// frames.
func collectStream(t *testing.T, h http.Handler, body string) []api.StreamEvent {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, api.PathStream, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return streamFrames(t, rr)
}

// streamFrames decodes the SSE frames a stream handler wrote to rr.
func streamFrames(t *testing.T, rr *httptest.ResponseRecorder) []api.StreamEvent {
	t.Helper()
	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q body %s", ct, rr.Body.String())
	}
	dec := api.NewStreamDecoder(rr.Body)
	var frames []api.StreamEvent
	for {
		ev, err := dec.Next()
		if err != nil {
			break
		}
		frames = append(frames, ev)
	}
	return frames
}

// TestStreamResultByteIdentical pins the streaming determinism
// contract: the result frame, with the trailing newline restored, is
// byte-for-byte the /v1/run response body — on a single server AND on
// a fleet coordinator.
func TestStreamResultByteIdentical(t *testing.T) {
	srv := New(Config{Jobs: 1})
	_, _, fh := newTestFleet(t, 2, Config{Jobs: 1})

	const body = `{"workload":"serve_tiny","seed":9,"monitoring":true,"interval":1000}`
	want := doReq(srv.Handler(), nil, http.MethodPost, api.PathRun, body)
	if want.Code != http.StatusOK {
		t.Fatalf("one-shot run: %d %s", want.Code, want.Body.String())
	}

	for name, h := range map[string]http.Handler{"server": srv.Handler(), "fleet": fh} {
		frames := collectStream(t, h, body)
		if len(frames) < 3 {
			t.Fatalf("%s: %d frames, want at least queued+meta+result", name, len(frames))
		}
		if frames[0].Event != api.EventQueued {
			t.Fatalf("%s: first frame %q, want %q", name, frames[0].Event, api.EventQueued)
		}
		var q api.StreamQueued
		if err := json.Unmarshal(frames[0].Data, &q); err != nil || q.Key == "" || q.Workload != "serve_tiny" {
			t.Errorf("%s: queued frame = %s (err %v)", name, frames[0].Data, err)
		}
		meta := frames[len(frames)-2]
		res := frames[len(frames)-1]
		if meta.Event != api.EventMeta || res.Event != api.EventResult {
			t.Fatalf("%s: trailing frames %q,%q want meta,result", name, meta.Event, res.Event)
		}
		var m api.StreamMeta
		if err := json.Unmarshal(meta.Data, &m); err != nil || m.Key != q.Key {
			t.Errorf("%s: meta frame = %s (err %v)", name, meta.Data, err)
		}
		if name == "fleet" && m.Worker == "" {
			t.Error("fleet meta frame lacks worker")
		}
		got := append(append([]byte{}, res.Data...), '\n')
		if !bytes.Equal(got, want.Body.Bytes()) {
			t.Errorf("%s: stream result differs from /v1/run body\nstream: %s\nrun:    %s", name, got, want.Body.String())
		}
	}
}

// progressGate is a ResponseWriter that closes seen when the first
// progress frame passes through (WriteStreamEvent writes one frame per
// Write).
type progressGate struct {
	*httptest.ResponseRecorder
	seen chan struct{}
	once sync.Once
}

func (g *progressGate) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("event: "+api.EventProgress+"\n")) {
		g.once.Do(func() { close(g.seen) })
	}
	return g.ResponseRecorder.Write(p)
}

// TestStreamHeartbeat: a run longer than the heartbeat interval emits
// progress frames between queued and the result. The run is held back
// until the client has been sent one, so the test does not depend on
// how long the simulation takes.
func TestStreamHeartbeat(t *testing.T) {
	srv := New(Config{Jobs: 1, StreamHeartbeat: time.Millisecond})
	gate := &progressGate{ResponseRecorder: httptest.NewRecorder(), seen: make(chan struct{})}
	run := srv.runner
	srv.runner = func(ctx context.Context, b bench.Builder, cfg bench.RunConfig, label string) (*bench.Result, error) {
		select {
		case <-gate.seen:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return run(ctx, b, cfg, label)
	}
	req, _ := http.NewRequest(http.MethodPost, api.PathStream, strings.NewReader(`{"workload":"serve_tiny","seed":10}`))
	srv.Handler().ServeHTTP(gate, req)
	frames := streamFrames(t, gate.ResponseRecorder)
	progress := 0
	for _, f := range frames {
		if f.Event == api.EventProgress {
			progress++
			var p api.StreamProgress
			if err := json.Unmarshal(f.Data, &p); err != nil || p.ElapsedMS < 0 {
				t.Errorf("progress frame = %s (err %v)", f.Data, err)
			}
		}
	}
	if progress == 0 {
		t.Error("no progress frames despite 1ms heartbeat")
	}
}

// TestStreamErrors: pre-admission failures answer as plain JSON (the
// stream never opens); run-time failures arrive as a terminal error
// frame inside the stream.
func TestStreamErrors(t *testing.T) {
	srv := New(Config{Jobs: 1})
	h := srv.Handler()

	// Unknown workload: rejected before the stream opens.
	req, _ := http.NewRequest(http.MethodPost, api.PathStream, strings.NewReader(`{"workload":"nope"}`))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound || !strings.Contains(rr.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("pre-admission stream error: %d %q %s", rr.Code, rr.Header().Get("Content-Type"), rr.Body.String())
	}
	var eb api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Code != api.CodeUnknownWorkload {
		t.Errorf("pre-admission envelope = %q (err %v)", rr.Body.String(), err)
	}

	// Draining: valid request, refused at admission — arrives as an
	// in-stream error frame carrying the envelope.
	srv.Drain()
	frames := collectStream(t, h, `{"workload":"serve_tiny","seed":1}`)
	if len(frames) == 0 {
		t.Fatal("no frames from draining stream")
	}
	last := frames[len(frames)-1]
	if last.Event != api.EventError {
		t.Fatalf("terminal frame %q, want error", last.Event)
	}
	if err := json.Unmarshal(last.Data, &eb); err != nil || eb.Code != api.CodeDraining {
		t.Errorf("in-stream error frame = %s (err %v)", last.Data, err)
	}
}
