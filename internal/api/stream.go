package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The stream protocol: POST /v1/stream takes the same Request body as
// /v1/run but answers 200 text/event-stream and replaces the one-shot
// response with Server-Sent Events, so a long run reports liveness
// instead of a silent multi-minute connection:
//
//	event: queued     data: StreamQueued   (once, after validation)
//	event: progress   data: StreamProgress (heartbeat while running)
//	event: meta       data: StreamMeta     (once, before the result)
//	event: result     data: <RunResponse>  (exact /v1/run body bytes)
//	event: error      data: <Error>        (terminal, replaces result)
//
// The result event's data is byte-for-byte the /v1/run response body
// (minus the trailing newline SSE framing forbids); a streaming client
// reassembles the identical bytes a one-shot client receives. Request
// errors detected before the stream opens (bad body, unknown workload)
// answer as plain JSON errors with their normal status — the stream
// only starts once the request is admitted.

// Stream event names.
const (
	EventQueued   = "queued"
	EventProgress = "progress"
	EventMeta     = "meta"
	EventResult   = "result"
	EventError    = "error"
)

// StreamQueued is the payload of the first event on a run stream.
type StreamQueued struct {
	Version  string `json:"version"`
	Workload string `json:"workload"`
	// Key is the request's content address — the same value the
	// X-Hpmvmd-Key header carries on /v1/run.
	Key string `json:"key"`
}

// StreamProgress is the heartbeat payload: proof of liveness while the
// simulation runs. Simulation state is single-writer and carries no
// atomic cycle counter, so the heartbeat reports wall-clock progress,
// not simulated cycles (DESIGN.md §12).
type StreamProgress struct {
	ElapsedMS int64 `json:"elapsed_ms"`
}

// StreamMeta carries the header metadata a one-shot response delivers
// in X-Hpmvmd-* headers; it always precedes the result event.
type StreamMeta struct {
	Cache    string `json:"cache"`
	Key      string `json:"key"`
	Snapshot string `json:"snapshot,omitempty"`
	Worker   string `json:"worker,omitempty"`
}

// StreamEvent is one decoded SSE frame.
type StreamEvent struct {
	Event string
	Data  []byte
}

// WriteStreamEvent writes one SSE frame. Neither the event name nor
// data may contain a CR or LF, which SSE reads as line ends
// (json.Marshal output never does).
func WriteStreamEvent(w io.Writer, event string, data []byte) error {
	if strings.ContainsAny(event, "\r\n") {
		return fmt.Errorf("api: stream event name %q contains a line break", event)
	}
	if i := bytes.IndexAny(data, "\r\n"); i >= 0 {
		return fmt.Errorf("api: stream event %q data contains a line break at offset %d", event, i)
	}
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// WriteStreamJSON marshals v and writes it as one SSE frame.
func WriteStreamJSON(w io.Writer, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("api: marshal stream %s event: %w", event, err)
	}
	return WriteStreamEvent(w, event, data)
}

// maxStreamLine bounds one SSE line; a result event carries a whole
// RunResponse (an observe=true body includes the obs export), so the
// bound is generous.
const maxStreamLine = 16 << 20

// StreamDecoder decodes the SSE frames WriteStreamEvent produces. It
// implements the subset of the SSE grammar the server emits: "event:"
// and "data:" fields, one data line per frame, blank-line dispatch;
// unknown fields (comments, "id:", "retry:") are skipped.
type StreamDecoder struct {
	s *bufio.Scanner
}

// NewStreamDecoder wraps r. A line of maxStreamLine bytes or more (not
// counting its LF) fails the decode with bufio.ErrTooLong.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return newStreamDecoder(r, maxStreamLine)
}

// newStreamDecoder is NewStreamDecoder with the line cap as a
// parameter, so a test can reach it with small inputs.
func newStreamDecoder(r io.Reader, maxLine int) *StreamDecoder {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, min(64<<10, maxLine)), maxLine)
	return &StreamDecoder{s: s}
}

// Next returns the next event, or io.EOF at a clean end of stream. A
// stream that ends mid-frame returns io.ErrUnexpectedEOF.
func (d *StreamDecoder) Next() (StreamEvent, error) {
	var ev StreamEvent
	started := false
	for d.s.Scan() {
		line := d.s.Text()
		switch {
		case line == "":
			if started {
				return ev, nil
			}
			// Leading blank lines between frames: skip.
		case strings.HasPrefix(line, "event: "):
			ev.Event = strings.TrimPrefix(line, "event: ")
			started = true
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(strings.TrimPrefix(line, "data: "))
			started = true
		default:
			// Unknown SSE field or comment: ignore per the grammar.
		}
	}
	if err := d.s.Err(); err != nil {
		return ev, err
	}
	if started {
		return ev, io.ErrUnexpectedEOF
	}
	return ev, io.EOF
}
