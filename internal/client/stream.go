package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"hpmvm/internal/api"
)

// StreamUpdate is one progress callback from RunStream.
type StreamUpdate struct {
	// Event is the SSE event name (api.EventQueued / EventProgress /
	// EventMeta).
	Event string
	// Queued is set for the queued event.
	Queued *api.StreamQueued
	// Progress is set for heartbeat events.
	Progress *api.StreamProgress
	// Meta is set for the meta event.
	Meta *api.StreamMeta
}

// RunStream executes one request via POST /v1/stream, invoking update
// (if non-nil) for each queued/progress/meta frame, and returns the
// reassembled result — byte-identical to what Run would have returned
// for the same request (the server strips the body's trailing newline
// for SSE framing; the client restores it).
//
// Refusals are not retried here: a stream caller is interactive and
// decides its own retry policy from the returned *api.Error.
func (c *Client) RunStream(ctx context.Context, req api.Request, update func(StreamUpdate)) (*api.RunResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: marshal request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+api.PathStream, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	if c.cfg.Route != "" {
		hreq.Header.Set(api.HeaderRoute, c.cfg.Route)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()

	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		// Pre-admission rejection: a plain JSON error with its normal
		// status.
		data, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return nil, fmt.Errorf("client: read response: %w", rerr)
		}
		return nil, decodeError(resp, data)
	}

	dec := api.NewStreamDecoder(resp.Body)
	var meta api.StreamMeta
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("client: stream ended without a result: %w", io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, fmt.Errorf("client: stream: %w", err)
		}
		switch ev.Event {
		case api.EventQueued:
			if update != nil {
				var q api.StreamQueued
				if json.Unmarshal(ev.Data, &q) == nil {
					update(StreamUpdate{Event: ev.Event, Queued: &q})
				}
			}
		case api.EventProgress:
			if update != nil {
				var p api.StreamProgress
				if json.Unmarshal(ev.Data, &p) == nil {
					update(StreamUpdate{Event: ev.Event, Progress: &p})
				}
			}
		case api.EventMeta:
			if err := json.Unmarshal(ev.Data, &meta); err != nil {
				return nil, fmt.Errorf("client: decode meta frame: %w", err)
			}
			if update != nil {
				m := meta
				update(StreamUpdate{Event: ev.Event, Meta: &m})
			}
		case api.EventResult:
			// Restore the newline the server trimmed for SSE framing:
			// the bytes are now identical to the /v1/run body.
			return &api.RunResult{
				Body:     append(append([]byte{}, ev.Data...), '\n'),
				Key:      meta.Key,
				Cache:    meta.Cache,
				Snapshot: meta.Snapshot,
				Worker:   meta.Worker,
			}, nil
		case api.EventError:
			var ae api.Error
			if err := json.Unmarshal(ev.Data, &ae); err != nil || ae.Message == "" {
				return nil, fmt.Errorf("client: malformed error frame %q", ev.Data)
			}
			return nil, &ae
		}
	}
}
