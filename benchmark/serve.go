package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"hpmvm/internal/api"
	"hpmvm/internal/bench"
	"hpmvm/internal/client"
	"hpmvm/internal/serve"
	"hpmvm/internal/stats"
)

// The serve workloads are closed loops: hpmvmd's callers are experiment
// scripts and the fleet coordinator, each waiting for its reply before it
// sends the next request. loadClients = nproc of the box the baseline was
// taken on; one process generates all the load.
const (
	loadClients = 2
	roundLength = 250 * time.Millisecond
	serveProg   = "fop" // 40–65 ms per simulation, so a run yields hundreds of misses
	warmCycles  = 2_000_000
	setupRepeat = 5
)

// reqClass is the traffic class of one request.
type reqClass uint8

const (
	classHot reqClass = iota
	classCold
	classSampled
	classWarm
	numClasses
)

// hotRequest is the one request the hot workloads repeat.
func hotRequest(seed int64) api.Request {
	return api.Request{Version: api.Version, Workload: serveProg, Seed: seed}
}

// mixSchedule generates one client's seeded request sequence for
// serve-mixed: every block of eight holds four hot repeats, two cold-unique
// requests, one sampled and one warm-sweep request, in an order drawn from
// the seed. Unique requests are numbered from the seed, never the clock, so
// equal seeds give byte-identical schedules.
type mixSchedule struct {
	seed   int64
	client int
	rng    *rand.Rand
	block  [8]reqClass
	n      int64
}

func newMixSchedule(seed int64, client int) *mixSchedule {
	return &mixSchedule{seed: seed, client: client, rng: rand.New(rand.NewSource(seed*1009 + int64(client)))}
}

func (m *mixSchedule) next() (api.Request, reqClass) {
	slot := int(m.n % 8)
	if slot == 0 {
		m.block = [8]reqClass{classHot, classHot, classHot, classHot, classCold, classCold, classSampled, classWarm}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	// Unique within the run: clients own disjoint halves of the seed's
	// million.
	unique := m.seed*1_000_000 + int64(m.client)*500_000 + m.n
	m.n++
	class := m.block[slot]
	req := hotRequest(m.seed)
	switch class {
	case classCold:
		req.Seed = unique
	case classSampled:
		req.Seed = unique
		req.Sampled = true
	case classWarm:
		req.WarmStartCycles = warmCycles
		req.MaxCycles = 4_000_000_000 + uint64(unique) // beyond any run: a distinct key, the same prefix
	}
	return req, class
}

// verifier checks every response: no error, byte-identical to the first
// response to the same request body (SHA-256), a hit where one is required.
type verifier struct {
	rep *report

	mu      sync.Mutex
	digests map[string][sha256.Size]byte // request body -> first response
	instret map[[sha256.Size]byte]float64
}

func newVerifier(rep *report) *verifier {
	return &verifier{rep: rep, digests: map[string][sha256.Size]byte{}, instret: map[[sha256.Size]byte]float64{}}
}

// response checks one exchange and returns the simulated instructions the
// response carries. The report is not safe for concurrent use, so all of it
// happens under the verifier's lock.
func (v *verifier) response(req api.Request, res *api.RunResult, err error, wantHit bool) float64 {
	key, _ := json.Marshal(req) // a struct of plain fields cannot fail to encode
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.rep.check(err == nil, "request %s: %v", key, err) {
		return 0
	}
	sum := sha256.Sum256(res.Body)
	first, seen := v.digests[string(key)]
	if !seen {
		v.digests[string(key)] = sum
		first = sum
	}
	ok := v.rep.check(first == sum, "request %s: response differs from the first response to the same body", key)
	if wantHit {
		ok = v.rep.check(res.Cache == "hit", "request %s: primed request answered %q, want hit", key, res.Cache) && ok
	}
	if !ok {
		return 0
	}
	n, known := v.instret[sum]
	if !known {
		var rr api.RunResponse
		if !v.rep.check(json.Unmarshal(res.Body, &rr) == nil, "request %s: response is not a RunResponse", key) {
			return 0
		}
		n = float64(rr.Instret)
		v.instret[sum] = n
	}
	return n
}

// cycles checks that a response reports the simulated cycles a direct run
// of the same configuration produced.
func (v *verifier) cycles(body []byte, want uint64) {
	var rr api.RunResponse
	err := json.Unmarshal(body, &rr)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.rep.check(err == nil && rr.Cycles == want, "response reports %d cycles, a direct run %d (%v)", rr.Cycles, want, err)
}

// serveEnv is the system under load: the edge the clients talk to and the
// simulation servers behind it.
type serveEnv struct {
	edge    *httptest.Server
	servers []*serve.Server
	names   []string
	fleet   *serve.Fleet
	workers []*httptest.Server
}

// spanHandler opens a span around every request h serves. It is installed
// only in a traced process; the untraced run serves through the bare
// handlers.
func spanHandler(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathRun { // the coordinator's health probes are not requests
			h.ServeHTTP(w, r)
			return
		}
		end := tr.begin(name)
		h.ServeHTTP(w, r)
		end()
	})
}

// newServeEnv builds a single server, or a coordinator over two HTTP
// workers when fleet is set.
func newServeEnv(fleet bool, tr *tracer) (*serveEnv, error) {
	env := &serveEnv{}
	if !fleet {
		srv := serve.New(serve.Config{})
		env.servers = []*serve.Server{srv}
		env.edge = httptest.NewServer(spanHandler(tr, "serve.handler", srv.Handler()))
		return env, nil
	}
	var backends []serve.Backend
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(spanHandler(tr, "serve.handler", srv.Handler()))
		name := fmt.Sprintf("w%d", i)
		env.servers = append(env.servers, srv)
		env.names = append(env.names, name)
		env.workers = append(env.workers, ts)
		backends = append(backends, client.New(client.Config{BaseURL: ts.URL, Name: name}))
	}
	f, err := serve.NewFleet(serve.FleetConfig{Backends: backends})
	if err != nil {
		env.close()
		return nil, err
	}
	env.fleet = f
	env.edge = httptest.NewServer(spanHandler(tr, "fleet.handler", f.Handler()))
	return env, nil
}

func (s *serveEnv) close() {
	if s.edge != nil {
		s.edge.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}

// prime fills the caches the workload expects warm: the hot request's
// result (on every fleet worker, which must answer byte-identically), and
// for the mixed workload the warm-start snapshot.
func (s *serveEnv) prime(ctx context.Context, v *verifier, seed int64, mixed bool) {
	hot := hotRequest(seed)
	c := client.New(client.Config{BaseURL: s.edge.URL})
	res, err := c.Run(ctx, hot)
	v.response(hot, res, err, false)
	for _, name := range s.names {
		pinned := client.New(client.Config{BaseURL: s.edge.URL, Route: name})
		res, err := pinned.Run(ctx, hot)
		v.response(hot, res, err, false)
	}
	res, err = c.Run(ctx, hot)
	v.response(hot, res, err, true)
	if mixed {
		warm := hot
		warm.WarmStartCycles = warmCycles
		res, err := c.Run(ctx, warm)
		v.response(warm, res, err, false)
	}
}

// loadResult is what a stretch of load rounds measured, drift-corrected.
type loadResult struct {
	roundRPS    []float64 // completions per corrected second, per round
	roundMinstr []float64 // delivered Minstr per corrected second, per round
	rawRPS      []float64
	lat         [numClasses][]float64 // corrected latency, ns, sorted
	rawHit      []float64             // uncorrected hit latency, ns, sorted
	requests    int
}

// load drives rounds of closed-loop traffic from clients clients. Client i
// follows schedules[i], or repeats the hot request when there are no
// schedules; a schedule carries on where the previous stretch left it, so no
// unique request is ever sent twice. Each round is bracketed by the reference
// kernel with the load paused; its completions and every latency in it are
// scaled by that bracket.
func (e *env) load(ctx context.Context, url string, v *verifier, clients int, schedules []*mixSchedule, rounds int, tr *tracer) loadResult {
	type sample struct {
		class reqClass
		ns    float64
	}
	var out loadResult
	hot := hotRequest(e.seed)
	conns := make([]*client.Client, clients)
	for i := range conns {
		conns[i] = client.New(client.Config{BaseURL: url})
	}

	before := e.ref.bracket()
	for round := 0; round < rounds; round++ {
		samples := make([][]sample, clients)
		instret := make([]float64, clients)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(roundLength)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					req, class := hot, classHot
					if schedules != nil {
						req, class = schedules[i].next()
					}
					tr.nextUnit()
					end := tr.begin("client.run")
					t := time.Now()
					res, err := conns[i].Run(ctx, req)
					ns := float64(time.Since(t))
					end()
					instret[i] += v.response(req, res, err, class == classHot)
					samples[i] = append(samples[i], sample{class, ns})
				}
			}(i)
		}
		wg.Wait()
		elapsed := float64(time.Since(start))
		after := e.ref.bracket()
		w := between(before, after)

		done := 0
		for i := range samples {
			done += len(samples[i])
			for _, s := range samples[i] {
				out.lat[s.class] = append(out.lat[s.class], correct(s.ns, w))
				if s.class == classHot {
					out.rawHit = append(out.rawHit, s.ns)
				}
			}
		}
		secs := correct(elapsed, w) / 1e9
		out.requests += done
		out.roundRPS = append(out.roundRPS, float64(done)/secs)
		out.roundMinstr = append(out.roundMinstr, sum(instret)/1e6/secs)
		out.rawRPS = append(out.rawRPS, float64(done)/(elapsed/1e9))
		before = after
	}
	for c := range out.lat {
		sort.Float64s(out.lat[c])
	}
	sort.Float64s(out.rawHit)
	return out
}

// runServeWorkload is a whole serve workload: set the system up (several
// times, so that setup_s is a median), run the load rounds, then read the
// servers' own counters.
func (e *env) runServeWorkload(ctx context.Context) {
	rep := e.rep
	fleet := e.workload == "fleet-hot"
	mixed := e.workload == "serve-mixed"
	v := newVerifier(rep)

	// The primed response must report what a direct run of the same
	// configuration simulates.
	b, err := bench.Lookup(serveProg)
	if !rep.check(err == nil, "%v", err) {
		return
	}
	direct, _, err := bench.Run(b, bench.RunConfig{Seed: e.seed})
	if !rep.check(err == nil, "direct %s run: %v", serveProg, err) {
		return
	}

	var sys *serveEnv
	var setups, rawSetups []float64
	before := e.startBracket
	for i := 0; i < setupRepeat; i++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		sys, err = newServeEnv(fleet, e.tracer)
		if !rep.check(err == nil, "set-up: %v", err) {
			return
		}
		sys.prime(ctx, v, e.seed, mixed)
		raw := time.Since(start).Seconds()
		after := e.ref.bracket()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, correct(raw, between(before, after)))
		before = after
	}
	defer sys.close()
	rep.set("setup_s", stats.Median(setups))
	rep.logf("setup_s raw %.4f s (median of %d set-ups)", stats.Median(rawSetups), setupRepeat)

	c := client.New(client.Config{BaseURL: sys.edge.URL})
	hot := hotRequest(e.seed)
	res, err := c.Run(ctx, hot)
	if v.response(hot, res, err, true) > 0 {
		v.cycles(res.Body, direct.Cycles)
	}

	var schedules []*mixSchedule
	if mixed {
		for i := 0; i < loadClients; i++ {
			schedules = append(schedules, newMixSchedule(e.seed, i))
		}
	}
	rounds := e.rounds()
	main := e.load(ctx, sys.edge.URL, v, loadClients, schedules, rounds, nil)
	e.serveMetrics(main, float64(direct.Cycles))
	e.serveCounts(ctx, sys)

	if e.traced {
		// One client, so that spans nest by time; the same stretch with
		// the tracer off is the like-for-like base for the overhead.
		base := e.load(ctx, sys.edge.URL, v, 1, schedules, rounds, nil)
		e.tracer.enable(true)
		traced := e.load(ctx, sys.edge.URL, v, 1, schedules, rounds, e.tracer)
		e.tracer.enable(false)
		rep.set("trace.overhead_pct", 100*(stats.Median(base.roundRPS)/stats.Median(traced.roundRPS)-1))
	}
}

// serveMetrics reports the user-visible numbers of the load rounds.
func (e *env) serveMetrics(l loadResult, hotCycles float64) {
	rep := e.rep
	rep.set("rps", stats.Median(l.roundRPS))
	rep.set("sim_minstr_per_s", stats.Median(l.roundMinstr))
	rep.set("sim_cycles", hotCycles)
	hits := l.lat[classHot]
	rep.set("hit_p50_us", reportable(hits, 0.50)/1e3)
	rep.set("hit_p99_us", reportable(hits, 0.99)/1e3)
	rep.set("miss_p50_ms", reportable(l.lat[classCold], 0.50)/1e6)
	rep.set("serve.sampled_p50_ms", reportable(l.lat[classSampled], 0.50)/1e6)
	rep.set("serve.warm_p50_ms", reportable(l.lat[classWarm], 0.50)/1e6)
	rep.logf("%s: %d rounds, %d requests; rps raw %.1f -> corrected %.1f", e.workload, len(l.roundRPS), l.requests, stats.Median(l.rawRPS), stats.Median(l.roundRPS))
	rep.logf("  hits n=%d: p50 raw %.1f us -> corrected %.1f us, p99 raw %.1f us -> corrected %.1f us",
		len(hits), reportable(l.rawHit, 0.50)/1e3, reportable(hits, 0.50)/1e3, reportable(l.rawHit, 0.99)/1e3, reportable(hits, 0.99)/1e3)
	rep.logf("  cold n=%d  sampled n=%d  warm n=%d", len(l.lat[classCold]), len(l.lat[classSampled]), len(l.lat[classWarm]))
}

// serveCounts reads the counters the servers and the coordinator keep.
func (e *env) serveCounts(ctx context.Context, sys *serveEnv) {
	rep := e.rep
	var hits, shared, misses, evictions, rejected, snapHits, snapStores, busiest, requests float64
	for _, srv := range sys.servers {
		st := srv.Stats()
		hits += float64(st.Cache.Hits)
		shared += float64(st.Cache.Shared)
		misses += float64(st.Cache.Misses)
		evictions += float64(st.Cache.Evictions)
		snapHits += float64(st.Snapshots.Hits)
		snapStores += float64(st.Snapshots.Stores)
		for _, cv := range st.Counters {
			switch cv.Name {
			case "serve.queue.rejected":
				rejected += float64(cv.Value)
			case "serve.requests":
				requests += float64(cv.Value)
				if float64(cv.Value) > busiest {
					busiest = float64(cv.Value)
				}
			}
		}
	}
	if served := hits + shared + misses; served > 0 {
		rep.set("serve.cache_hit_ratio", (hits+shared)/served)
	}
	rep.set("serve.cache_evictions", evictions)
	rep.set("serve.singleflight_shared", shared)
	rep.set("serve.queue_rejected", rejected)
	if snapHits+snapStores > 0 {
		rep.set("serve.snapshot_hit_ratio", snapHits/(snapHits+snapStores))
	}
	if sys.fleet == nil {
		return
	}
	st := sys.fleet.Stats(ctx)
	unhealthy := 0
	for _, w := range st.PerWorker {
		if !w.Healthy {
			unhealthy++
		}
	}
	rep.set("fleet.routed", float64(st.Routing.Total))
	rep.set("fleet.sticky", float64(st.Routing.Sticky))
	rep.set("fleet.stolen", float64(st.Routing.Stolen))
	rep.set("fleet.failovers", float64(unhealthy))
	if requests > 0 {
		rep.set("fleet.busiest_worker_share", busiest/requests)
	}
}
