package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRequestRoundTrip pins the request wire names: a request marshals
// to exactly the field names the pre-v1 daemon accepted (plus the
// optional version), so every pre-v1 client body still decodes.
func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		Version:         Version,
		Workload:        "db",
		HeapFactor:      2.5,
		Collector:       "gencopy",
		Monitoring:      true,
		Interval:        25000,
		Event:           "l2",
		Seed:            7,
		MaxCycles:       1 << 20,
		TrackFields:     []string{"String::value"},
		WarmStartCycles: 1000,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`"version":"v1"`, `"workload":"db"`, `"heap_factor":2.5`,
		`"collector":"gencopy"`, `"monitoring":true`, `"interval":25000`,
		`"event":"l2"`, `"seed":7`, `"max_cycles":1048576`,
		`"track_fields":["String::value"]`, `"warm_start_cycles":1000`,
	} {
		if !strings.Contains(string(b), name) {
			t.Errorf("marshaled request missing %s: %s", name, b)
		}
	}
	var out Request
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if out.Workload != in.Workload || out.Interval != in.Interval || out.WarmStartCycles != in.WarmStartCycles {
		t.Errorf("round trip mutated the request: %+v", out)
	}
}

// TestErrorEnvelope pins the envelope wire shape {error, code,
// retry_after?} and the error interface.
func TestErrorEnvelope(t *testing.T) {
	e := &Error{Version: Version, Message: "queue full", Code: CodeQueueFull, RetryAfter: 1}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"version":"v1","error":"queue full","code":"queue_full","retry_after":1}`
	if string(b) != want {
		t.Errorf("envelope = %s, want %s", b, want)
	}
	// retry_after is omitted when retrying cannot help.
	b, _ = json.Marshal(&Error{Message: "boom", Code: CodeInternal})
	if strings.Contains(string(b), "retry_after") {
		t.Errorf("retry_after serialized at zero: %s", b)
	}
	var ierr error = e
	if ierr.Error() != "queue full" {
		t.Errorf("Error() = %q", ierr.Error())
	}
	var ae *Error
	if !errors.As(ierr, &ae) || ae.Code != CodeQueueFull {
		t.Error("errors.As does not recover the envelope")
	}
}

// TestStatusForCode pins the code→status table; codes are append-only
// and never change status.
func TestStatusForCode(t *testing.T) {
	cases := []struct {
		code   string
		status int
	}{
		{CodeBadRequest, http.StatusBadRequest},
		{CodeUnknownWorkload, http.StatusNotFound},
		{CodeMethodNotAllowed, http.StatusMethodNotAllowed},
		{CodeQueueFull, http.StatusTooManyRequests},
		{CodeDraining, http.StatusServiceUnavailable},
		{CodeCancelled, http.StatusServiceUnavailable},
		{CodeUnavailable, http.StatusServiceUnavailable},
		{CodeTimeout, http.StatusGatewayTimeout},
		{CodeInternal, http.StatusInternalServerError},
		{"some_future_code", http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := StatusForCode(tc.code); got != tc.status {
			t.Errorf("StatusForCode(%q) = %d, want %d", tc.code, got, tc.status)
		}
	}
}

// TestStreamRoundTrip encodes a full event sequence and decodes it
// back frame by frame.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"version":"v1","workload":"db","cycles":42}`)
	if err := WriteStreamJSON(&buf, EventQueued, StreamQueued{Version: Version, Workload: "db", Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteStreamJSON(&buf, EventProgress, StreamProgress{ElapsedMS: 12}); err != nil {
		t.Fatal(err)
	}
	if err := WriteStreamJSON(&buf, EventMeta, StreamMeta{Cache: "miss", Key: "k", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteStreamEvent(&buf, EventResult, body); err != nil {
		t.Fatal(err)
	}

	d := NewStreamDecoder(&buf)
	wantEvents := []string{EventQueued, EventProgress, EventMeta, EventResult}
	var got []StreamEvent
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != len(wantEvents) {
		t.Fatalf("decoded %d events, want %d", len(got), len(wantEvents))
	}
	for i, ev := range got {
		if ev.Event != wantEvents[i] {
			t.Errorf("event %d = %q, want %q", i, ev.Event, wantEvents[i])
		}
	}
	if !bytes.Equal(got[3].Data, body) {
		t.Errorf("result data = %s, want %s", got[3].Data, body)
	}
	var q StreamQueued
	if err := json.Unmarshal(got[0].Data, &q); err != nil || q.Workload != "db" {
		t.Errorf("queued payload: %v %+v", err, q)
	}
}

// TestStreamRejectsNewlines: SSE lines must be free of CR and LF; the
// writer refuses rather than corrupting the frame.
func TestStreamRejectsNewlines(t *testing.T) {
	for _, data := range []string{"a\nb", "a\rb", "ab\r"} {
		if err := WriteStreamEvent(io.Discard, EventResult, []byte(data)); err == nil {
			t.Errorf("line break in data %q accepted", data)
		}
	}
	if err := WriteStreamEvent(io.Discard, "result\ndata: x", nil); err == nil {
		t.Error("line break in the event name accepted")
	}
}

// TestStreamTruncated: a stream cut mid-frame surfaces
// io.ErrUnexpectedEOF, not a silent clean EOF.
func TestStreamTruncated(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader("event: result\ndata: {}"))
	if _, err := d.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}
