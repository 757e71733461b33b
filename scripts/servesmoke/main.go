// Command servesmoke is the end-to-end smoke checker for a running
// hpmvmd (single server or fleet coordinator), built on the typed
// internal/client — the same code path external clients use.
//
// It verifies, against a live daemon:
//
//   - /v1/healthz liveness and /v1/workloads registry
//   - cold run = cache miss, replay = byte-identical cache hit,
//     /v1/statsz reflects both
//   - on a coordinator, the same request pinned to every healthy worker
//     (X-Hpmvmd-Route) is served by that worker with the same bytes
//   - warm-start prefix: store then hit, responses equal modulo key
//   - sampled runs: estimated block with confidence intervals, cached
//     under a key distinct from the exact run's
//   - sampled+warm_start is refused with the bad_request code
//   - unknown workloads map to the unknown_workload code
//   - /v1/stream reassembles byte-identically to /v1/run
//   - managed-optimization runs (coalloc, codelayout, swprefetch) surface per-kind
//     decision/revert counters in /v1/statsz
//
// Usage: servesmoke -url http://127.0.0.1:18080
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/client"
	"hpmvm/internal/opt"
)

func main() {
	url := "http://127.0.0.1:18080"
	if len(os.Args) == 3 && os.Args[1] == "-url" {
		url = os.Args[2]
	} else if len(os.Args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: servesmoke [-url http://host:port]")
		os.Exit(2)
	}
	if err := smoke(url); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL — %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: OK — cold=miss, replay=hit, warm=store then hit, sampled=estimated at its own key, stream byte-identical, error codes stable, opt counters in statsz")
}

func smoke(url string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New(client.Config{BaseURL: url})

	// Liveness (the daemon calibrates workloads at startup; the boot
	// wrapper polls healthz before invoking us, so one check suffices).
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	workloads, err := c.Workloads(ctx)
	if err != nil || len(workloads) == 0 {
		return fmt.Errorf("workloads: %v (%d rows)", err, len(workloads))
	}

	// Cold run, then byte-identical replay.
	base := api.Request{Workload: "compress", Seed: 1, Monitoring: true, Interval: 25_000}
	cold, err := c.Run(ctx, base)
	if err != nil {
		return fmt.Errorf("cold run: %w", err)
	}
	if cold.Cache != "miss" {
		return fmt.Errorf("cold disposition %q, want miss", cold.Cache)
	}
	hit, err := c.Run(ctx, base)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if hit.Cache != "hit" {
		return fmt.Errorf("replay disposition %q, want hit", hit.Cache)
	}
	if !bytes.Equal(cold.Body, hit.Body) {
		return errors.New("cached response is not byte-identical to the cold one")
	}

	// statsz reflects the hit — on a fleet, in the per-worker rows.
	if err := checkHits(ctx, c); err != nil {
		return err
	}
	probed, err := probeWorkers(ctx, c, url, base, hit.Body)
	if err != nil {
		return err
	}
	if probed > 0 {
		fmt.Printf("servesmoke: pinned probe byte-identical on %d workers\n", probed)
	}

	// Warm-start prefix: store, then a divergent budget hits, and both
	// describe the same simulation as the cold run (modulo key).
	warm := base
	warm.WarmStartCycles = 2_000_000
	warm2 := warm
	warm2.MaxCycles = 4_000_000_000
	w1, err := c.Run(ctx, warm)
	if err != nil {
		return fmt.Errorf("warm store: %w", err)
	}
	if w1.Snapshot != "store" {
		return fmt.Errorf("first warm disposition %q, want store", w1.Snapshot)
	}
	w2, err := c.Run(ctx, warm2)
	if err != nil {
		return fmt.Errorf("warm divergent: %w", err)
	}
	if w2.Snapshot != "hit" {
		return fmt.Errorf("divergent warm disposition %q, want hit", w2.Snapshot)
	}
	if err := sameModuloKey(cold.Body, w1.Body); err != nil {
		return fmt.Errorf("warm store response: %w", err)
	}
	if err := sameModuloKey(cold.Body, w2.Body); err != nil {
		return fmt.Errorf("warm divergent response: %w", err)
	}

	// Sampled: estimated block, own content address.
	sampled := api.Request{Workload: "compress", Seed: 1, Sampled: true}
	sres, srun, err := c.RunResponse(ctx, sampled)
	if err != nil {
		return fmt.Errorf("sampled run: %w", err)
	}
	if !sres.Sampled || sres.Estimated == nil {
		return errors.New("sampled response lacks its estimated block")
	}
	if sres.Estimated.CyclesLo <= 0 || sres.Estimated.CyclesHi < sres.Estimated.CyclesLo {
		return fmt.Errorf("sampled confidence interval degenerate: [%.0f, %.0f]",
			sres.Estimated.CyclesLo, sres.Estimated.CyclesHi)
	}
	exact, err := c.Run(ctx, api.Request{Workload: "compress", Seed: 1})
	if err != nil {
		return fmt.Errorf("exact run: %w", err)
	}
	if srun.Key == "" || srun.Key == exact.Key {
		return fmt.Errorf("sampled key %q aliases the exact key %q", srun.Key, exact.Key)
	}

	// Typed refusals: sampled+warm is bad_request, unknown workloads
	// have their own code.
	badReq := sampled
	badReq.WarmStartCycles = 1_000_000
	if err := wantCode(c, ctx, badReq, api.CodeBadRequest); err != nil {
		return err
	}
	if err := wantCode(c, ctx, api.Request{Workload: "no_such_workload"}, api.CodeUnknownWorkload); err != nil {
		return err
	}

	// Stream: reassembles the exact one-shot bytes.
	stream, err := c.RunStream(ctx, base, nil)
	if err != nil {
		return fmt.Errorf("stream run: %w", err)
	}
	if !bytes.Equal(stream.Body, hit.Body) {
		return errors.New("streamed response is not byte-identical to the one-shot body")
	}
	if stream.Cache != "hit" {
		return fmt.Errorf("streamed replay disposition %q, want hit", stream.Cache)
	}

	// Managed optimizations: a coalloc, a codelayout and a swprefetch
	// run must each surface a per-kind counter row in statsz.
	if err := checkOptCounters(ctx, c); err != nil {
		return err
	}
	return nil
}

// checkOptCounters runs db once with co-allocation, once with the
// code-layout optimization and once with software-prefetch injection,
// then asserts /v1/statsz carries one counter row per kind: coalloc
// with decisions (db's hot pairs trigger it at defaults), codelayout
// present (at the default 8 KB instruction cache the optimizer
// correctly declines to relocate, so its row may report zero decisions
// — the row itself proves the framework ran), and swprefetch present
// (at library defaults the conservative warmup guards may decline to
// inject within db's run; the row again proves the framework ran). On
// a fleet the rows are summed by the coordinator.
func checkOptCounters(ctx context.Context, c *client.Client) error {
	if _, err := c.Run(ctx, api.Request{Workload: "db", Seed: 1, Coalloc: true}); err != nil {
		return fmt.Errorf("coalloc run: %w", err)
	}
	if _, err := c.Run(ctx, api.Request{Workload: "db", Seed: 1, CodeLayout: true, Event: "l1i"}); err != nil {
		return fmt.Errorf("codelayout run: %w", err)
	}
	if _, err := c.Run(ctx, api.Request{Workload: "db", Seed: 1, SwPrefetch: true}); err != nil {
		return fmt.Errorf("swprefetch run: %w", err)
	}
	rows, err := optRows(ctx, c)
	if err != nil {
		return err
	}
	byKind := make(map[string]opt.KindStats, len(rows))
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	co, ok := byKind[opt.KindCoalloc]
	if !ok {
		return errors.New("statsz optimizations lack the coalloc row after a coalloc run")
	}
	if co.Decisions == 0 {
		return errors.New("statsz coalloc row reports zero decisions after a db coalloc run")
	}
	if _, ok := byKind[opt.KindCodeLayout]; !ok {
		return errors.New("statsz optimizations lack the codelayout row after a codelayout run")
	}
	if _, ok := byKind[opt.KindSwPrefetch]; !ok {
		return errors.New("statsz optimizations lack the swprefetch row after a swprefetch run")
	}
	return nil
}

// probeWorkers pins req, which the target already answered unpinned
// with want, to every healthy worker the coordinator's /v1/statsz
// lists: each must serve it itself and answer the same bytes, whichever
// worker ran it first. Returns the number of workers probed — zero on a
// single server, which has none.
func probeWorkers(ctx context.Context, c *client.Client, url string, req api.Request, want []byte) (int, error) {
	fst, err := c.FleetStatsz(ctx)
	if err != nil || !fst.Fleet {
		return 0, nil
	}
	probed := 0
	for _, w := range fst.PerWorker {
		if !w.Healthy {
			continue
		}
		res, err := client.New(client.Config{BaseURL: url, Route: w.Name}).Run(ctx, req)
		if err != nil {
			return probed, fmt.Errorf("probe pinned to %s: %w", w.Name, err)
		}
		if res.Worker != w.Name {
			return probed, fmt.Errorf("probe pinned to %s served by %q", w.Name, res.Worker)
		}
		if !bytes.Equal(res.Body, want) {
			return probed, fmt.Errorf("worker %s answers the pinned probe with different bytes than the unpinned response", w.Name)
		}
		probed++
	}
	return probed, nil
}

// optRows fetches the per-kind optimization counters — the fleet
// aggregate when the daemon is a coordinator, else the single server's.
func optRows(ctx context.Context, c *client.Client) ([]opt.KindStats, error) {
	if fst, err := c.FleetStatsz(ctx); err == nil && fst.Fleet {
		return fst.Optimizations, nil
	}
	st, err := c.Statsz(ctx)
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return st.Optimizations, nil
}

// checkHits asserts the result-cache hit shows up in statsz — directly
// on a single server, summed over workers on a fleet.
func checkHits(ctx context.Context, c *client.Client) error {
	if fst, err := c.FleetStatsz(ctx); err == nil && fst.Fleet {
		var hits uint64
		for _, w := range fst.PerWorker {
			if w.Statsz != nil {
				hits += w.Statsz.Cache.Hits
			}
		}
		if hits == 0 {
			return errors.New("fleet statsz reports no cache hits after a replay")
		}
		return nil
	}
	st, err := c.Statsz(ctx)
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	if st.Cache.Hits == 0 {
		return errors.New("statsz reports no cache hits after a replay")
	}
	if st.Version != api.Version {
		return fmt.Errorf("statsz version %q, want %q", st.Version, api.Version)
	}
	return nil
}

// sameModuloKey asserts two run responses describe the identical
// simulation, differing at most in their content-address key.
func sameModuloKey(a, b []byte) error {
	var ma, mb map[string]any
	if err := json.Unmarshal(a, &ma); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &mb); err != nil {
		return err
	}
	delete(ma, "key")
	delete(mb, "key")
	ca, _ := json.Marshal(ma)
	cb, _ := json.Marshal(mb)
	if !bytes.Equal(ca, cb) {
		return errors.New("responses differ beyond the key field")
	}
	return nil
}

// wantCode asserts a request fails with the given stable error code.
func wantCode(c *client.Client, ctx context.Context, req api.Request, code string) error {
	_, err := c.Run(ctx, req)
	var ae *api.Error
	if !errors.As(err, &ae) {
		return fmt.Errorf("request %+v: error %v, want %s envelope", req, err, code)
	}
	if ae.Code != code {
		return fmt.Errorf("request %+v: code %q, want %q", req, ae.Code, code)
	}
	return nil
}
