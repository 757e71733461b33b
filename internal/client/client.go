// Package client is the typed Go client for the hpmvmd /v1 wire API
// (internal/api). It is the only sanctioned way for Go code to talk to
// a server: the smoke checker (scripts/servesmoke), the load generator
// (benchmark/) and the fleet supervisor (cmd/hpmvmd -workers) all
// speak through it, so the coordinator↔worker protocol is exercised by
// exactly the code paths external clients use.
//
// A *Client implements serve.Backend (Name/RunBody/Statsz/Healthz), which
// is what lets the fleet coordinator treat a remote worker process and
// an in-process server identically.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hpmvm/internal/api"
)

// Config tunes a Client.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Name labels this client when it acts as a fleet backend (the
	// worker name used in routing and X-Hpmvmd-Worker). Defaults to
	// BaseURL.
	Name string
	// MaxRetries bounds retry-with-backoff on queue_full/draining
	// refusals (0 = 4; negative = no retries).
	MaxRetries int
	// RetryBase is the first backoff delay (0 = 100ms); each retry
	// doubles it, and a server Retry-After/retry_after hint overrides
	// the computed delay.
	RetryBase time.Duration
	// Route pins every run to a named worker via X-Hpmvmd-Route
	// (diagnostics: servesmoke uses it to probe per-worker
	// byte-identity).
	Route string
}

// Client is a typed /v1 API client.
type Client struct {
	cfg  Config
	http *http.Client
}

// New builds a client for baseURL-style cfg.
func New(cfg Config) *Client {
	if cfg.Name == "" {
		cfg.Name = cfg.BaseURL
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	// A dedicated client with no global timeout: per-call ctx deadlines
	// bound requests, since a cold simulation legitimately runs for
	// minutes. Its own transport keeps idleConnsPerHost connections
	// warm; the process-wide default keeps two, so a coordinator
	// forwarding more concurrent requests than that to one worker would
	// dial a fresh connection for each extra one and close it after.
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = idleConnsPerHost
	t.MaxIdleConnsPerHost = idleConnsPerHost
	return &Client{cfg: cfg, http: &http.Client{Transport: t}}
}

// idleConnsPerHost sizes a Client's idle connection pool. A client
// talks to one host, so this is the most concurrent requests whose
// connections it keeps for the next ones.
const idleConnsPerHost = 64

// Name implements serve.Backend.
func (c *Client) Name() string { return c.cfg.Name }

// decodeError turns a non-200 response and its body into *api.Error.
// Responses from anything other than hpmvmd (a proxy, a wrong port)
// lack the envelope; they become CodeUnavailable with the body as
// context. The Retry-After header mirrors the envelope's retry_after
// and is trusted when the envelope carries none.
func decodeError(resp *http.Response, body []byte) *api.Error {
	var ae api.Error
	if err := json.Unmarshal(body, &ae); err != nil || ae.Message == "" || ae.Code == "" {
		const max = 200
		trimmed := bytes.TrimSpace(body)
		if len(trimmed) > max {
			trimmed = trimmed[:max]
		}
		ae = api.Error{
			Version: api.Version,
			Message: fmt.Sprintf("client: HTTP %d: %s", resp.StatusCode, trimmed),
			Code:    api.CodeUnavailable,
		}
	}
	if ae.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = secs
		}
	}
	return &ae
}

// retryDelay computes the wait before attempt n (0-based), honoring a
// server hint when one arrived.
func (c *Client) retryDelay(n int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	return c.cfg.RetryBase << n
}

// retriable reports whether the refusal is worth waiting out.
func retriable(ae *api.Error) bool {
	return ae.Code == api.CodeQueueFull || ae.Code == api.CodeDraining
}

// Run executes one request via POST /v1/run: RunBody of its JSON
// encoding.
func (c *Client) Run(ctx context.Context, req api.Request) (*api.RunResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: marshal request: %w", err)
	}
	return c.RunBody(ctx, body)
}

// RunBody implements serve.Backend: it POSTs body to /v1/run
// unchanged, retrying enveloped queue_full/draining refusals with
// exponential backoff (server Retry-After hints override the
// schedule). The result carries the exact response bytes plus header
// metadata; failures are *api.Error.
func (c *Client) RunBody(ctx context.Context, body []byte) (*api.RunResult, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := c.runOnce(ctx, body)
		if err == nil {
			return res, nil
		}
		lastErr = err
		var ae *api.Error
		if attempt >= c.cfg.MaxRetries || !errors.As(err, &ae) || !retriable(ae) {
			return nil, lastErr
		}
		hint := time.Duration(0)
		if ae.RetryAfter > 0 {
			hint = time.Duration(ae.RetryAfter) * time.Second
		}
		select {
		case <-time.After(c.retryDelay(attempt, hint)):
		case <-ctx.Done():
			return nil, fmt.Errorf("client: %w (last refusal: %v)", ctx.Err(), lastErr)
		}
	}
}

// runOnce is one POST /v1/run round trip.
func (c *Client) runOnce(ctx context.Context, body []byte) (*api.RunResult, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+api.PathRun, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.cfg.Route != "" {
		hreq.Header.Set(api.HeaderRoute, c.cfg.Route)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp, data)
	}
	return &api.RunResult{
		Body:     data,
		Key:      resp.Header.Get(api.HeaderKey),
		Cache:    resp.Header.Get(api.HeaderCache),
		Snapshot: resp.Header.Get(api.HeaderSnapshot),
		Worker:   resp.Header.Get(api.HeaderWorker),
	}, nil
}

// RunResponse runs req and decodes the response body.
func (c *Client) RunResponse(ctx context.Context, req api.Request) (*api.RunResponse, *api.RunResult, error) {
	res, err := c.Run(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	var rr api.RunResponse
	if err := json.Unmarshal(res.Body, &rr); err != nil {
		return nil, res, fmt.Errorf("client: decode run response: %w", err)
	}
	return &rr, res, nil
}

// getJSON fetches path and decodes into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// Statsz implements serve.Backend: GET /v1/statsz.
func (c *Client) Statsz(ctx context.Context) (api.Statsz, error) {
	var st api.Statsz
	err := c.getJSON(ctx, api.PathStatsz, &st)
	return st, err
}

// FleetStatsz fetches a coordinator's aggregated statsz.
func (c *Client) FleetStatsz(ctx context.Context) (api.FleetStatsz, error) {
	var st api.FleetStatsz
	err := c.getJSON(ctx, api.PathStatsz, &st)
	return st, err
}

// Healthz implements serve.Backend: GET /v1/healthz, nil on HTTP 200.
func (c *Client) Healthz(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+api.PathHealthz, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	return nil
}

// Workloads lists the server's registered workloads: GET /v1/workloads.
func (c *Client) Workloads(ctx context.Context) ([]api.WorkloadInfo, error) {
	var rows []api.WorkloadInfo
	err := c.getJSON(ctx, api.PathWorkloads, &rows)
	return rows, err
}
