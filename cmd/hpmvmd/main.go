// Command hpmvmd is the long-lived run service: an HTTP/JSON front end
// over the simulation stack with a deterministic result cache, bounded
// queue, per-request timeouts and graceful drain — as a single server
// or as a coordinator over a fleet of workers.
//
// Usage:
//
//	hpmvmd -addr :8080                 # single-process server
//	hpmvmd -addr :8080 -workers 4      # coordinator + 4 worker processes
//	curl -s -X POST -d '{"workload":"db","seed":1}' localhost:8080/v1/run
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/statsz
//
// With -workers N the process becomes a fleet coordinator: it forks N
// copies of itself in -worker mode, routes /v1/run requests with
// snapshot-sticky rendezvous hashing, steals overflow onto idle
// workers, restarts crashed workers, and aggregates every worker's
// statsz under /v1/statsz. Because runs are deterministic, a fleet of
// any size answers byte-identically to a single server.
//
// Endpoints:
//
//	POST /v1/run       execute (or replay from cache) one benchmark run
//	POST /v1/stream    the same contract, streamed as Server-Sent Events
//	GET  /v1/healthz   liveness; 503 once draining
//	GET  /v1/statsz    cache hit rate, queue depth, per-workload latency
//	GET  /v1/workloads the registered workloads with calibration data
//
// On SIGTERM/SIGINT the server stops admitting runs, lets in-flight
// requests finish (bounded by -drain), then exits; a coordinator also
// forwards the signal to its workers and waits for them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
	"hpmvm/internal/serve"
)

// options carries the parsed flags; the supervisor re-serializes the
// relevant subset onto its worker processes' command lines.
type options struct {
	addr         string
	jobs         int
	queue        int
	cacheEntries int
	timeout      time.Duration
	drain        time.Duration
	workers      int
	worker       bool
	portFile     string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (host:0 picks a free port)")
	flag.IntVar(&o.jobs, "jobs", 0, "per-server worker-pool width (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 64, "queued runs beyond the worker width before 429")
	flag.IntVar(&o.cacheEntries, "cache", 256, "result-cache capacity (entries)")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Minute, "per-run wall-clock cap (0 = none)")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-drain budget on SIGTERM")
	flag.IntVar(&o.workers, "workers", 0, "fleet size in forked worker processes; 0 serves single-process")
	flag.BoolVar(&o.worker, "worker", false, "run as a fleet worker (started by the coordinator)")
	flag.StringVar(&o.portFile, "port-file", "", "write the bound address to this file once listening")
	flag.Parse()

	prefix := "hpmvmd: "
	if o.worker {
		prefix = "hpmvmd[worker]: "
	}
	log.SetPrefix(prefix)
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	run := runProcessFleet
	if o.worker || o.workers == 0 {
		run = runSingle
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "%s%v\n", prefix, err)
		os.Exit(1)
	}
}

// listen binds o.addr and publishes the bound address through
// o.portFile (atomically, so a polling supervisor never reads a
// partial write).
func listen(o options) (net.Listener, error) {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", o.addr, err)
	}
	if o.portFile != "" {
		tmp := o.portFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return nil, err
		}
		if err := os.Rename(tmp, o.portFile); err != nil {
			ln.Close()
			return nil, err
		}
	}
	return ln, nil
}

// serveUntilSignal serves handler on ln until SIGTERM/SIGINT, then
// runs drainFn and shuts the HTTP server down within the drain budget.
func serveUntilSignal(o options, ln net.Listener, handler http.Handler, drainFn func()) error {
	srv := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	log.Printf("signal received, draining (budget %v)", o.drain)
	drainFn()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("drained cleanly")
	return nil
}

// runSingle is the classic topology (and the -worker role): one server
// process owning its engine, caches and queue.
func runSingle(o options) error {
	s := serve.New(serve.Config{
		Jobs:         o.jobs,
		QueueDepth:   o.queue,
		CacheEntries: o.cacheEntries,
		Timeout:      o.timeout,
	})
	ln, err := listen(o)
	if err != nil {
		return err
	}
	log.Printf("serving %d workloads on %s (jobs %d, queue %d, cache %d, timeout %v)",
		len(bench.Names()), ln.Addr(), o.jobs, o.queue, o.cacheEntries, o.timeout)
	return serveUntilSignal(o, ln, s.Handler(), s.Drain)
}
