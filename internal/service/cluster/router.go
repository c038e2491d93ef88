package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// maxBodyBytes bounds a forwarded POST body, mirroring the worker
// API's spec bound.
const maxBodyBytes = 1 << 20

// maxJobRoutes bounds the job-ID → worker affinity table.
const maxJobRoutes = 4096

// workerState is a router-side view of one worker's availability.
type workerState int

const (
	// stateJoining: registered but not yet probed healthy; not
	// routable until the first successful probe.
	stateJoining workerState = iota
	stateHealthy
	stateDraining
	stateDown
)

func (s workerState) String() string {
	switch s {
	case stateJoining:
		return "joining"
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// worker is the router's record of one swallow-serve process. All
// mutable fields are guarded by Router.mu.
type worker struct {
	name   string // host:port — the X-Worker stamp
	remote *Remote

	state    workerState
	fails    int // consecutive probe failures
	probeRTT time.Duration

	routed   int64
	errors   int64
	latSum   float64 // forward latency, successful routes
	latCount int64
}

// RouterOptions configures a Router. Zero fields take the stated
// defaults.
type RouterOptions struct {
	// DefaultConfig / QuickConfig mirror the fronted workers' configs
	// so the router derives the same affinity key the worker caches
	// under. Zero means harness.DefaultConfig() / QuickConfig().
	DefaultConfig harness.Config
	QuickConfig   harness.Config
	// Replicas is the ring's virtual nodes per worker (<= 0: 128).
	Replicas int
	// ProbeInterval paces the health loop (<= 0: 1s); ProbeTimeout
	// bounds one probe (<= 0: 2s); ProbeFailLimit is how many
	// consecutive probe failures mark a worker down (<= 0: 2).
	ProbeInterval  time.Duration
	ProbeTimeout   time.Duration
	ProbeFailLimit int
	// ForwardTimeout bounds one proxied render (<= 0: 2m).
	ForwardTimeout time.Duration
	// Logf receives operational log lines (nil: log silently
	// discarded).
	Logf func(format string, args ...any)
}

// Router fronts N swallow-serve workers: requests are routed by
// consistent hashing over the canonical content key so each worker's
// result cache and machine pool specialize on a slice of the
// keyspace, with failover to the ring successor when the owner is
// down or draining. It is itself an http.Handler speaking the same
// API as a worker (plus /join, /leave and its own /healthz and
// /metrics), so clients cannot tell a fleet from a process — except
// for the X-Worker header naming who rendered.
type Router struct {
	def, quick harness.Config
	opts       RouterOptions
	mux        *http.ServeMux

	mu      sync.Mutex
	workers map[string]*worker
	ring    *Ring
	jobs    map[string]string // job ID → worker name
	jobSeq  []string          // insertion order, for bounding

	requests  atomic.Int64
	noWorker  atomic.Int64
	failovers atomic.Int64
	joins     atomic.Int64
	leaves    atomic.Int64
	reqSeq    atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	started  time.Time
}

// NewRouter builds a Router with no workers; add them with AddWorker
// or let them register via POST /join, then Start the probe loop.
func NewRouter(opts RouterOptions) *Router {
	if opts.DefaultConfig.Iters == 0 {
		opts.DefaultConfig.Iters = harness.DefaultConfig().Iters
	}
	if opts.QuickConfig.Iters == 0 {
		opts.QuickConfig.Iters = harness.QuickConfig().Iters
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.ProbeFailLimit <= 0 {
		opts.ProbeFailLimit = 2
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 2 * time.Minute
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rt := &Router{
		def:     opts.DefaultConfig,
		quick:   opts.QuickConfig,
		opts:    opts,
		mux:     http.NewServeMux(),
		workers: make(map[string]*worker),
		ring:    NewRing(opts.Replicas),
		jobs:    make(map[string]string),
		stop:    make(chan struct{}),
		started: time.Now(),
	}
	rt.mux.HandleFunc("GET /artifacts", rt.handleIndex)
	rt.mux.HandleFunc("GET /artifacts/{name}", rt.handleArtifact)
	rt.mux.HandleFunc("POST /scenarios", rt.handleScenario)
	rt.mux.HandleFunc("GET /scenarios", rt.handleScenarioIndex)
	rt.mux.HandleFunc("PUT /scenarios/{name}", rt.handleScenarioNamed)
	rt.mux.HandleFunc("GET /scenarios/{name}", rt.handleScenarioNamed)
	rt.mux.HandleFunc("GET /scenarios/{name}/versions", rt.handleScenarioNamed)
	rt.mux.HandleFunc("GET /cache/{key}", rt.handleCacheGet)
	rt.mux.HandleFunc("POST /jobs", rt.handleJobSubmit)
	rt.mux.HandleFunc("GET /jobs/{id}", rt.handleJobGet)
	rt.mux.HandleFunc("POST /join", rt.handleJoin)
	rt.mux.HandleFunc("POST /leave", rt.handleLeave)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt
}

// AddWorker registers a worker by base URL (idempotent). The worker
// joins the ring immediately — membership is sticky so a flapping
// worker does not reshuffle its peers' keyspace — but it is not
// routable until a probe sees it healthy; call ProbeAll (or wait for
// the loop) to admit it.
func (rt *Router) AddWorker(baseURL string) (string, error) {
	remote, err := NewRemote(baseURL, RemoteOptions{Timeout: rt.opts.ForwardTimeout})
	if err != nil {
		return "", err
	}
	name := remote.Name()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.workers[name]; !ok {
		rt.workers[name] = &worker{name: name, remote: remote, state: stateJoining}
		rt.ring.Add(name)
		rt.opts.Logf("worker %s registered (%d in ring)", name, rt.ring.Len())
	}
	return name, nil
}

// Start launches the periodic health-probe loop.
func (rt *Router) Start() {
	go func() {
		ticker := time.NewTicker(rt.opts.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-ticker.C:
				rt.ProbeAll()
			}
		}
	}()
}

// Close stops the probe loop.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }

// ProbeAll probes every worker once, synchronously, and applies state
// transitions. The probe loop calls it on a ticker; tests and startup
// paths call it directly for a deterministic view.
func (rt *Router) ProbeAll() {
	rt.mu.Lock()
	snapshot := make([]*worker, 0, len(rt.workers))
	for _, wk := range rt.workers {
		snapshot = append(snapshot, wk)
	}
	rt.mu.Unlock()
	for _, wk := range snapshot {
		rt.probe(wk)
	}
}

// probe checks one worker's health and applies the state machine:
// healthy on 200, draining on a drain report, down after
// ProbeFailLimit consecutive unreachable probes.
func (rt *Router) probe(wk *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ProbeTimeout)
	start := time.Now()
	h, err := wk.remote.Healthz(ctx)
	rtt := time.Since(start)
	cancel()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	wk.probeRTT = rtt
	prev := wk.state
	if err != nil {
		wk.fails++
		if wk.fails >= rt.opts.ProbeFailLimit && wk.state != stateDown {
			wk.state = stateDown
		}
	} else {
		wk.fails = 0
		if h.State == StateDraining {
			wk.state = stateDraining
		} else {
			wk.state = stateHealthy
		}
	}
	if wk.state != prev {
		rt.opts.Logf("worker %s: %v -> %v", wk.name, prev, wk.state)
	}
}

// markDown records a transport failure observed on the data path:
// the worker is unreachable right now, so it leaves the routable set
// immediately instead of waiting out the probe loop.
func (rt *Router) markDown(wk *worker) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	wk.errors++
	wk.fails = rt.opts.ProbeFailLimit
	if wk.state != stateDown {
		rt.opts.Logf("worker %s: %v -> down (transport failure)", wk.name, wk.state)
		wk.state = stateDown
	}
}

// candidates returns the healthy workers in ring order from key: the
// owner first, then its failover successors. Draining and down
// workers are never returned while a healthy one exists — the drain
// contract the rebalance tests pin.
func (rt *Router) candidates(key string) []*worker {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	seq := rt.ring.Sequence(key)
	out := make([]*worker, 0, len(seq))
	for _, name := range seq {
		if wk := rt.workers[name]; wk != nil && wk.state == stateHealthy {
			out = append(out, wk)
		}
	}
	return out
}

// ServeHTTP counts, stamps the request ID, and dispatches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	id := rt.requestID(r)
	r.Header.Set("X-Request-ID", id) // forwarded verbatim to the worker
	w.Header().Set("X-Request-ID", id)
	rt.mux.ServeHTTP(w, r)
}

// requestID propagates a usable inbound X-Request-ID or mints one.
func (rt *Router) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 64 && printable(id) {
		return id
	}
	return fmt.Sprintf("rt%x-%x-%x", os.Getpid(), rt.started.UnixNano()&0xffffff, rt.reqSeq.Add(1))
}

func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// hopByHop are headers that must not be forwarded.
var hopByHop = []string{"Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

// forwardHeader clones the inbound headers minus hop-by-hop ones.
// X-Swallow-Peers is stripped too: it is router-owned routing state
// (proxy sets it per candidate), never a client input — a forged
// value would make workers fetch cache fills from arbitrary URLs.
func forwardHeader(r *http.Request) http.Header {
	hdr := r.Header.Clone()
	for _, h := range hopByHop {
		hdr.Del(h)
	}
	hdr.Del("X-Swallow-Peers")
	return hdr
}

// maxPeerHints bounds the peer URLs handed to a worker per request.
const maxPeerHints = 3

// peersFor lists the base URLs of key's other ring-sequence members —
// the previous owner first among them — as peer cache-fill hints for
// the worker actually serving the request. Every state qualifies: a
// draining worker still answers GET /cache/{key}, and a "down" worker
// may be back up with a warm store before the probe loop notices
// (the worker's peer ask just times out if not).
func (rt *Router) peersFor(key, serving string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for _, name := range rt.ring.Sequence(key) {
		if name == serving {
			continue
		}
		if wk := rt.workers[name]; wk != nil {
			out = append(out, wk.remote.URL())
			if len(out) == maxPeerHints {
				break
			}
		}
	}
	return out
}

// proxy forwards the request to the first candidate that answers,
// failing over on transport errors (the worker never produced a
// response, so retrying its successor is safe: renders are pure and
// deterministic, and a failover changes who computes, never what).
// Worker-returned statuses — 400, 404, 429, 500 — are answers and are
// relayed verbatim. When capture is true the upstream body is
// buffered and returned for inspection (job bookkeeping); otherwise
// it streams. Returns the serving worker, or nil if every candidate
// was unreachable (an error response has then been written).
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, body []byte, cands []*worker, key string, capture bool) (*worker, []byte, int) {
	if len(cands) == 0 {
		rt.noWorker.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no healthy worker"})
		return nil, nil, 0
	}
	hdr := forwardHeader(r)
	for i, wk := range cands {
		// Hand the worker its peer cache-fill hints: the other ring
		// members of this key, previous owner first — so a failover
		// target reclaims the old owner's warm result instead of
		// re-simulating.
		if key != "" {
			if peers := rt.peersFor(key, wk.name); len(peers) > 0 {
				hdr.Set("X-Swallow-Peers", strings.Join(peers, ","))
			} else {
				hdr.Del("X-Swallow-Peers")
			}
		}
		start := time.Now()
		resp, err := wk.remote.Do(r.Context(), r.Method, r.URL.Path, r.URL.Query(), hdr, body)
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away; nothing useful to write.
				return nil, nil, 0
			}
			rt.markDown(wk)
			if i < len(cands)-1 {
				rt.failovers.Add(1)
				rt.opts.Logf("failover: %s unreachable (%v), trying %s", wk.name, err, cands[i+1].name)
			}
			continue
		}
		out := w.Header()
		for k, vs := range resp.Header {
			out[k] = vs
		}
		out.Set("X-Worker", wk.name)
		w.WriteHeader(resp.StatusCode)
		var captured []byte
		if capture {
			captured, _ = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes*4))
			w.Write(captured)
		} else {
			io.Copy(w, resp.Body)
		}
		resp.Body.Close()
		rt.mu.Lock()
		wk.routed++
		wk.latSum += time.Since(start).Seconds()
		wk.latCount++
		rt.mu.Unlock()
		return wk, captured, resp.StatusCode
	}
	writeJSON(w, http.StatusBadGateway, map[string]string{"error": "all candidate workers unreachable"})
	return nil, nil, 0
}

// route computes candidates for key and proxies.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, body []byte, key string, capture bool) (*worker, []byte, int) {
	return rt.proxy(w, r, body, rt.candidates(key), key, capture)
}

// handleIndex forwards the registry index to any healthy worker (a
// fixed key, so the index too benefits from connection affinity).
func (rt *Router) handleIndex(w http.ResponseWriter, r *http.Request) {
	rt.route(w, r, nil, "artifacts-index", false)
}

// handleArtifact routes a render by its canonical cache key: the same
// sha256 the owning worker's result cache files the body under, so
// repeated identical requests always land on one warm worker.
// Unparseable configs still forward — the worker owns the error
// message — keyed by name alone.
func (rt *Router) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	key := ArtifactKey(name, harness.Config{})
	if cfg, err := ConfigFromQuery(rt.def, rt.quick, r.URL.Query()); err == nil {
		key = ArtifactKey(name, cfg)
	}
	rt.route(w, r, nil, key, false)
}

// handleScenario routes a spec submission by its content hash: the
// spec is parsed and compiled router-side only to derive the same
// cache key the worker will use, then forwarded verbatim. Malformed
// specs forward too (keyed on the raw bytes) so the worker's
// field-level 400 reaches the client unchanged.
func (rt *Router) handleScenario(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("reading spec: %v", err)})
		return
	}
	key := "scenario-raw:" + fmt.Sprintf("%x", hashString(string(body)))
	cfg, cfgErr := ConfigFromQuery(rt.def, rt.quick, r.URL.Query())
	if spec, perr := scenario.Parse(body); perr == nil && cfgErr == nil {
		if c, cerr := scenario.Compile(spec); cerr == nil {
			key = ScenarioKey(c, cfg)
		}
	}
	rt.route(w, r, body, key, false)
}

// handleScenarioIndex forwards the pinned-name listing. Names are
// per-worker state (each worker persists its own pins), so the index
// routes by a fixed key for a stable view: clients always see the
// same worker's list while membership holds.
func (rt *Router) handleScenarioIndex(w http.ResponseWriter, r *http.Request) {
	rt.route(w, r, nil, "scenarios-index", false)
}

// handleScenarioNamed routes PUT /scenarios/{name}, GET
// /scenarios/{name} and its /versions listing by the name alone, so
// the pin and every later render of it land on one worker — the only
// one guaranteed to know the name → hash binding.
func (rt *Router) handleScenarioNamed(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPut {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("reading spec: %v", err)})
			return
		}
	}
	rt.route(w, r, body, "scenario-name:"+r.PathValue("name"), false)
}

// handleCacheGet routes a raw cache read by the key itself — the
// owner is the worker most likely to hold it. Used by operators for
// spot checks; workers peer-fill directly from each other, not
// through the router.
func (rt *Router) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	rt.route(w, r, nil, r.PathValue("key"), false)
}

// handleJobSubmit routes an async job by the same key its synchronous
// twin would use, and records which worker accepted it so polls for
// the job ID — worker-local state — return to the right process.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("reading job body: %v", err)})
		return
	}
	wk, captured, status := rt.route(w, r, body, rt.jobKey(body, r), true)
	if wk == nil || status != http.StatusAccepted {
		return
	}
	var view struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(captured, &view) == nil && view.ID != "" {
		rt.recordJob(view.ID, wk.name)
	}
}

// jobKey derives the affinity key for a POST /jobs body, mirroring
// the worker's own config resolution so the async render lands on
// the worker whose cache its synchronous twin warms.
func (rt *Router) jobKey(body []byte, r *http.Request) string {
	var req struct {
		Artifact string          `json:"artifact"`
		Scenario json.RawMessage `json:"scenario"`
		Quick    bool            `json:"quick"`
		Config   *harness.Config `json:"config"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "job-raw:" + fmt.Sprintf("%x", hashString(string(body)))
	}
	cfg := rt.def
	if req.Quick {
		cfg = rt.quick
	}
	if req.Config != nil {
		if req.Config.Iters > 0 {
			cfg.Iters = req.Config.Iters
		}
		if len(req.Config.GoodputPayloads) > 0 {
			cfg.GoodputPayloads = req.Config.GoodputPayloads
		}
		if len(req.Config.LatencyPlacements) > 0 {
			cfg.LatencyPlacements = req.Config.LatencyPlacements
		}
	}
	cfg = cfg.Canonical()
	if len(req.Scenario) > 0 {
		if spec, err := scenario.Parse(req.Scenario); err == nil {
			if c, cerr := scenario.Compile(spec); cerr == nil {
				return ScenarioKey(c, cfg)
			}
		}
		return "job-raw:" + fmt.Sprintf("%x", hashString(string(req.Scenario)))
	}
	return ArtifactKey(req.Artifact, cfg)
}

// recordJob files id → worker in the bounded affinity table.
func (rt *Router) recordJob(id, workerName string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.jobs[id]; !ok {
		rt.jobSeq = append(rt.jobSeq, id)
		for len(rt.jobSeq) > maxJobRoutes {
			delete(rt.jobs, rt.jobSeq[0])
			rt.jobSeq = rt.jobSeq[1:]
		}
	}
	rt.jobs[id] = workerName
}

// handleJobGet polls a job on the worker that accepted it. Job state
// is worker-local, so the recorded route wins even while that worker
// drains (it still answers until its listener closes); with no
// record — a router restart — every routable worker is asked in ring
// order and the first non-404 answer is relayed.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	wk := rt.workers[rt.jobs[id]]
	if wk != nil && wk.state == stateDown {
		wk = nil
	}
	rt.mu.Unlock()
	if wk != nil {
		rt.proxy(w, r, nil, []*worker{wk}, "", true)
		return
	}
	// Fallback scan: ask everyone still reachable.
	rt.mu.Lock()
	var cands []*worker
	for _, n := range rt.ring.Sequence("job:" + id) {
		if cw := rt.workers[n]; cw != nil && cw.state != stateDown {
			cands = append(cands, cw)
		}
	}
	rt.mu.Unlock()
	hdr := forwardHeader(r)
	for _, cw := range cands {
		resp, err := cw.remote.Do(r.Context(), http.MethodGet, r.URL.Path, nil, hdr, nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		out := w.Header()
		for k, vs := range resp.Header {
			out[k] = vs
		}
		out.Set("X-Worker", cw.name)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		return
	}
	writeJSON(w, http.StatusNotFound, map[string]string{
		"error": fmt.Sprintf("unknown job %q (job results live on the worker that accepted them)", id)})
}

// joinRequest is the POST /join and /leave body.
type joinRequest struct {
	URL string `json:"url"`
}

// handleJoin registers a worker (idempotent) and probes it inline, so
// a 200 response means the worker is in the ring and its state is
// current — a worker retrying /join until success knows it is
// routable once the reply says healthy.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "want {\"url\": \"http://host:port\"}"})
		return
	}
	name, err := rt.AddWorker(req.URL)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	rt.joins.Add(1)
	rt.mu.Lock()
	wk := rt.workers[name]
	rt.mu.Unlock()
	rt.probe(wk)
	rt.mu.Lock()
	st := wk.state.String()
	n := rt.ring.Len()
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"worker": name, "state": st, "workers": n})
}

// handleLeave marks a worker draining: it stops receiving new
// requests immediately (its keys fall to ring successors) but keeps
// its ring slots, so a rejoin restores the exact keyspace it owned.
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "want {\"url\": \"http://host:port\"}"})
		return
	}
	remote, err := NewRemote(req.URL, RemoteOptions{})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	rt.mu.Lock()
	wk := rt.workers[remote.Name()]
	if wk != nil && wk.state != stateDraining {
		rt.opts.Logf("worker %s: %v -> draining (leave)", wk.name, wk.state)
		wk.state = stateDraining
	}
	rt.mu.Unlock()
	if wk == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown worker %q", remote.Name())})
		return
	}
	rt.leaves.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"worker": wk.name, "state": stateDraining.String()})
}

// handleHealth reports router liveness and the per-worker states. The
// router is healthy while at least one worker is routable.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	states := make(map[string]string, len(rt.workers))
	healthy := 0
	for name, wk := range rt.workers {
		states[name] = wk.state.String()
		if wk.state == stateHealthy {
			healthy++
		}
	}
	rt.mu.Unlock()
	state, code := StateOK, http.StatusOK
	if healthy == 0 {
		state, code = "degraded", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"state": state, "healthy": healthy, "workers": states})
}

// handleMetrics serves the router's merged text metrics: fleet
// routing totals, per-worker up/latency/routed series, and ring
// stats.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "swallow_router_uptime_seconds %.3f\n", time.Since(rt.started).Seconds())
	fmt.Fprintf(w, "swallow_router_requests_total %d\n", rt.requests.Load())
	fmt.Fprintf(w, "swallow_router_failovers_total %d\n", rt.failovers.Load())
	fmt.Fprintf(w, "swallow_router_no_worker_total %d\n", rt.noWorker.Load())
	fmt.Fprintf(w, "swallow_router_joins_total %d\n", rt.joins.Load())
	fmt.Fprintf(w, "swallow_router_leaves_total %d\n", rt.leaves.Load())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fmt.Fprintf(w, "swallow_router_ring_members %d\n", rt.ring.Len())
	fmt.Fprintf(w, "swallow_router_ring_vnodes %d\n", rt.ring.VNodes())
	fmt.Fprintf(w, "swallow_router_jobs_tracked %d\n", len(rt.jobs))
	names := make([]string, 0, len(rt.workers))
	for name := range rt.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wk := rt.workers[name]
		up := 0
		if wk.state == stateHealthy {
			up = 1
		}
		fmt.Fprintf(w, "swallow_router_worker_up{worker=%q} %d\n", name, up)
		fmt.Fprintf(w, "swallow_router_worker_state{worker=%q,state=%q} 1\n", name, wk.state)
		fmt.Fprintf(w, "swallow_router_worker_routed_total{worker=%q} %d\n", name, wk.routed)
		fmt.Fprintf(w, "swallow_router_worker_errors_total{worker=%q} %d\n", name, wk.errors)
		fmt.Fprintf(w, "swallow_router_worker_latency_seconds_sum{worker=%q} %.6f\n", name, wk.latSum)
		fmt.Fprintf(w, "swallow_router_worker_latency_seconds_count{worker=%q} %d\n", name, wk.latCount)
		fmt.Fprintf(w, "swallow_router_worker_probe_seconds{worker=%q} %.6f\n", name, wk.probeRTT.Seconds())
	}
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WorkerStates snapshots the fleet view (name → state string), for
// drivers and tests.
func (rt *Router) WorkerStates() map[string]string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]string, len(rt.workers))
	for name, wk := range rt.workers {
		out[name] = wk.state.String()
	}
	return out
}

// OwnerOf reports which routable worker currently owns key (the
// first healthy worker in ring order), for tests and diagnostics.
func (rt *Router) OwnerOf(key string) (string, bool) {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return "", false
	}
	return cands[0].name, true
}

// Join registers selfURL with the router at routerURL (the worker
// side of POST /join), retrying with backoff until the router
// answers or attempts are exhausted. A 200 means the worker is in
// the ring.
func Join(ctx context.Context, routerURL, selfURL string, attempts int, backoff time.Duration) error {
	if attempts <= 0 {
		attempts = 20
	}
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	remote, err := NewRemote(routerURL, RemoteOptions{Timeout: 5 * time.Second, Retries: 0})
	if err != nil {
		return err
	}
	body, _ := json.Marshal(joinRequest{URL: selfURL})
	hdr := http.Header{"Content-Type": {"application/json"}}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
		}
		resp, err := remote.Do(ctx, http.MethodPost, "/join", nil, hdr, body)
		if err != nil {
			lastErr = err
			continue
		}
		ok := resp.StatusCode == http.StatusOK
		msg := ""
		if !ok {
			msg = errorBody(resp)
		}
		resp.Body.Close()
		if ok {
			return nil
		}
		lastErr = fmt.Errorf("join %s: %s: %s", routerURL, resp.Status, msg)
	}
	return lastErr
}

// Leave notifies the router at routerURL that selfURL is draining
// (best effort; the router's probes catch it regardless).
func Leave(ctx context.Context, routerURL, selfURL string) error {
	remote, err := NewRemote(routerURL, RemoteOptions{Timeout: 5 * time.Second, Retries: 1})
	if err != nil {
		return err
	}
	body, _ := json.Marshal(joinRequest{URL: selfURL})
	hdr := http.Header{"Content-Type": {"application/json"}}
	resp, err := remote.Do(ctx, http.MethodPost, "/leave", nil, hdr, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leave %s: %s: %s", routerURL, resp.Status, errorBody(resp))
	}
	return nil
}
