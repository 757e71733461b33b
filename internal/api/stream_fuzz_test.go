package api

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
)

// fuzzLineCap is the line cap FuzzStreamDecoder decodes arbitrary bytes
// under, so over-cap lines fit in small inputs.
const fuzzLineCap = 256

// FuzzStreamDecoder fuzzes the SSE decoder internal/client reads
// /v1/stream through, over bytes a server or anything between it and
// the client may send:
//
//   - decoding arbitrary bytes never panics and ends in io.EOF,
//     io.ErrUnexpectedEOF or bufio.ErrTooLong;
//   - it ends in bufio.ErrTooLong exactly when some line (the bytes up
//     to an LF) is at least the cap long;
//   - a frame WriteStreamEvent accepts decodes to the event name and
//     data it was given, followed by a clean io.EOF.
//
// Runs over its seed corpus as a plain test; `make fuzz-smoke` explores
// further.
func FuzzStreamDecoder(f *testing.F) {
	var stream bytes.Buffer
	for _, fr := range []struct {
		event string
		v     any
	}{
		{EventQueued, StreamQueued{Version: Version, Workload: "db", Key: "k"}},
		{EventProgress, StreamProgress{ElapsedMS: 1000}},
		{EventMeta, StreamMeta{Cache: "miss", Key: "k", Worker: "w0"}},
		{EventResult, RunResponse{Version: Version, Workload: "db", Cycles: 1}},
	} {
		if err := WriteStreamJSON(&stream, fr.event, fr.v); err != nil {
			f.Fatal(err)
		}
	}
	var errFrame bytes.Buffer
	if err := WriteStreamJSON(&errFrame, EventError, Error{Version: Version, Message: "boom", Code: "internal"}); err != nil {
		f.Fatal(err)
	}
	whole := stream.Bytes()
	f.Add(whole, EventResult, []byte(`{"version":"v1"}`))
	f.Add(errFrame.Bytes(), EventError, errFrame.Bytes()[len("event: error\ndata: "):errFrame.Len()-2])
	f.Add(whole[:len(whole)/2], EventProgress, []byte(`{"elapsed_ms":1}`))
	f.Add(whole[:len(whole)-1], "", []byte(nil))
	f.Add(append([]byte("data: "), bytes.Repeat([]byte("x"), fuzzLineCap)...), EventMeta, []byte("{}"))
	f.Add(append(bytes.Repeat([]byte("y"), fuzzLineCap-1), '\n'), "a\rb", []byte("c\n"))
	f.Add([]byte(": comment\nid: 1\nretry: 10\n\n\nevent: x\r\ndata: y\r\n\r\n"), "x", []byte("y\r"))

	f.Fuzz(func(t *testing.T, stream []byte, event string, data []byte) {
		d := newStreamDecoder(bytes.NewReader(stream), fuzzLineCap)
		var err error
		for n := 0; err == nil; n++ {
			if n > len(stream) {
				t.Fatalf("%d frames from %d bytes", n, len(stream))
			}
			_, err = d.Next()
		}
		overCap := slices.ContainsFunc(bytes.Split(stream, []byte("\n")), func(line []byte) bool {
			return len(line) >= fuzzLineCap
		})
		if overCap != errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("over-cap line %t, decode ended in %v", overCap, err)
		}
		if !overCap && err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("decode ended in %v", err)
		}

		var frame bytes.Buffer
		if WriteStreamEvent(&frame, event, data) != nil {
			return
		}
		d = NewStreamDecoder(&frame)
		ev, err := d.Next()
		if err != nil || ev.Event != event || !bytes.Equal(ev.Data, data) {
			t.Fatalf("frame (%q, %q) decoded as (%q, %q), %v", event, data, ev.Event, ev.Data, err)
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("after the one frame: %v, want io.EOF", err)
		}
	})
}
