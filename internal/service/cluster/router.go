package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

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
	return [...]string{"joining", "healthy", "draining", "down"}[s]
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

// RouterOptions configures a Router.
type RouterOptions struct {
	// Logf receives operational log lines (nil: log silently
	// discarded).
	Logf func(format string, args ...any)
}

const (
	// probeInterval paces the health loop; probeFailLimit consecutive
	// probe failures mark a worker down.
	probeInterval  = time.Second
	probeFailLimit = 2
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
)

// Router fronts N swallow-serve workers: requests are routed by
// consistent hashing over the canonical content key so each worker's
// result cache and machine pool specialize on a slice of the
// keyspace, with failover to the ring successor when the owner is
// down or draining. It is itself an http.Handler speaking the same
// API as a worker (plus /join, /leave and its own /healthz and
// /metrics), so clients cannot tell a fleet from a process — except
// for the X-Worker header naming who rendered.
type Router struct {
	resolver Resolver
	opts     RouterOptions
	mux      *http.ServeMux

	mu      sync.Mutex
	workers map[string]*worker
	ring    *Ring

	requests  atomic.Int64
	noWorker  atomic.Int64
	failovers atomic.Int64
	joins     atomic.Int64
	leaves    atomic.Int64
	reqSeq    atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
}

// NewRouter builds a Router with no workers; add them with AddWorker
// or let them register via POST /join, then Start the probe loop.
func NewRouter(opts RouterOptions) *Router {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rt := &Router{
		resolver: NewResolver(),
		opts:     opts,
		mux:      http.NewServeMux(),
		workers:  make(map[string]*worker),
		ring:     NewRing(ringReplicas),
		stop:     make(chan struct{}),
	}
	// Every forwarded endpoint is a key extractor in front of forward.
	// Renders key on what the Resolver says the worker files them
	// under, so repeats of one request land on one warm worker. The
	// artifact index keys on a constant. So does everything about a
	// pinned name: the name registry is worker-local state, and keying
	// the index, every pin and every render of a name on one constant
	// gives it one home, which the index then lists whole.
	resolved := func(t Target, err error) (string, error) { return t.Key, err }
	fixed := func(key string) keyFunc {
		return func(*http.Request, []byte) (string, error) { return key, nil }
	}
	names := fixed("scenarios-index")
	for pattern, key := range map[string]keyFunc{
		"GET /artifacts": fixed("artifacts-index"),
		"GET /artifacts/{name}": func(r *http.Request, _ []byte) (string, error) {
			return resolved(rt.resolver.Artifact(r.PathValue("name"), r.URL.Query()))
		},
		"POST /scenarios": func(r *http.Request, body []byte) (string, error) {
			return resolved(rt.resolver.Scenario(body, r.URL.Query()))
		},
		"GET /scenarios":                 names,
		"PUT /scenarios/{name}":          names,
		"GET /scenarios/{name}":          names,
		"GET /scenarios/{name}/versions": names,
		"POST /jobs": func(_ *http.Request, body []byte) (string, error) {
			return resolved(rt.resolver.Job(body))
		},
	} {
		rt.mux.HandleFunc(pattern, rt.forward(key))
	}
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
	remote, err := NewRemote(baseURL, forwardTimeout)
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
		ticker := time.NewTicker(probeInterval)
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
// probeFailLimit consecutive unreachable probes.
func (rt *Router) probe(wk *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	start := time.Now()
	h, err := wk.remote.Healthz(ctx)
	rtt := time.Since(start)
	cancel()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	wk.probeRTT = rtt
	prev := wk.state
	switch {
	case err != nil:
		if wk.fails++; wk.fails >= probeFailLimit {
			wk.state = stateDown
		}
	case h.State == StateDraining:
		wk.fails, wk.state = 0, stateDraining
	default:
		wk.fails, wk.state = 0, stateHealthy
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
	wk.fails = probeFailLimit
	if wk.state != stateDown {
		rt.opts.Logf("worker %s: %v -> down (transport failure)", wk.name, wk.state)
		wk.state = stateDown
	}
}

// plan reads key's ring sequence once: the healthy workers in ring
// order, the owner first, then its failover successors. Draining and
// down workers are never candidates — the drain contract the
// rebalance tests pin.
func (rt *Router) plan(key string) []*worker {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var cands []*worker
	for _, name := range rt.ring.Sequence(key) {
		if wk := rt.workers[name]; wk != nil && wk.state == stateHealthy {
			cands = append(cands, wk)
		}
	}
	return cands
}

// ServeHTTP counts, stamps the request ID, and dispatches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	id := RequestID(r, "rt", &rt.reqSeq)
	r.Header.Set("X-Request-ID", id) // forwarded verbatim to the worker
	w.Header().Set("X-Request-ID", id)
	rt.mux.ServeHTTP(w, r)
}

// hopByHop are headers that must not be forwarded.
var hopByHop = []string{"Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

// forwardHeader clones the inbound headers minus hop-by-hop ones.
func forwardHeader(r *http.Request) http.Header {
	hdr := r.Header.Clone()
	for _, h := range hopByHop {
		hdr.Del(h)
	}
	return hdr
}

// proxy forwards the request to the first candidate that answers and
// relays the answer, failing over on transport errors (the worker
// never produced a response, so retrying its successor is safe:
// renders are pure and deterministic, and a failover changes who
// computes, never what). Worker-returned statuses — 400, 404, 429, 500
// — are answers and are relayed verbatim. If every candidate was
// unreachable, an error response is written instead.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, body []byte, key string) {
	cands := rt.plan(key)
	if len(cands) == 0 {
		rt.noWorker.Add(1)
		WriteError(w, http.StatusServiceUnavailable, "no healthy worker")
		return
	}
	hdr := forwardHeader(r)
	for i, wk := range cands {
		start := time.Now()
		resp, err := wk.remote.Do(r.Context(), r.Method, r.URL.Path, r.URL.Query(), hdr, body)
		if err == nil {
			rt.relay(w, wk, resp, start)
			return
		}
		if r.Context().Err() != nil {
			// The client went away; nothing useful to write.
			return
		}
		rt.markDown(wk)
		if i < len(cands)-1 {
			rt.failovers.Add(1)
			rt.opts.Logf("failover: %s unreachable (%v), trying %s", wk.name, err, cands[i+1].name)
		}
	}
	WriteError(w, http.StatusBadGateway, "all candidate workers unreachable")
}

// relay writes one worker's answer to the client — its headers plus
// X-Worker, its status, its body streamed — and books the route.
func (rt *Router) relay(w http.ResponseWriter, wk *worker, resp *http.Response, start time.Time) {
	defer resp.Body.Close()
	out := w.Header()
	for k, vs := range resp.Header {
		out[k] = vs
	}
	out.Set("X-Worker", wk.name)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	rt.mu.Lock()
	wk.routed++
	wk.latSum += time.Since(start).Seconds()
	wk.latCount++
	rt.mu.Unlock()
}

// keyFunc names the ring key of one forwarded request.
type keyFunc func(r *http.Request, body []byte) (string, error)

// forward is the one forwarding handler: read the body, ask key where
// the request belongs, proxy it there. A request that does not resolve
// — malformed spec, unknown artifact, bad override — is forwarded all
// the same, keyed on its own bytes, so the worker's error reaches the
// client verbatim; every worker refuses it identically.
func (rt *Router) forward(key keyFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.Method != http.MethodGet {
			var err error
			if body, err = ReadBody(r); err != nil {
				WriteError(w, Status(err), "%v", err)
				return
			}
		}
		k, err := key(r, body)
		if err != nil {
			k = fmt.Sprintf("unresolved:%s?%s:%x", r.URL.Path, r.URL.RawQuery, hashString(string(body)))
		}
		rt.proxy(w, r, body, k)
	}
}

// handleJobGet polls a job on the workers its ID's key routes to. A
// job lives on the worker that accepted it, which is the key's owner
// or, after a failover, a ring successor; so every member that is not
// down is asked in ring order — a draining one still answers for its
// own jobs — and the first answer that is not a 404 is relayed.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var ask []*worker
	if key, ok := JobKey(id); ok {
		rt.mu.Lock()
		for _, n := range rt.ring.Sequence(key) {
			if wk := rt.workers[n]; wk != nil && wk.state != stateDown {
				ask = append(ask, wk)
			}
		}
		rt.mu.Unlock()
	}
	hdr := forwardHeader(r)
	for _, wk := range ask {
		start := time.Now()
		resp, err := wk.remote.Do(r.Context(), http.MethodGet, r.URL.Path, nil, hdr, nil)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusNotFound {
			rt.relay(w, wk, resp, start)
			return
		}
		resp.Body.Close()
	}
	WriteError(w, http.StatusNotFound, "unknown job %q (job results live on the worker that accepted them)", id)
}

// joinRequest is the POST /join and /leave body.
type joinRequest struct {
	URL string `json:"url"`
}

// joinURL decodes it, answering 400 itself when there is none.
func joinURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil || req.URL == "" {
		WriteError(w, http.StatusBadRequest, `want {"url": "http://host:port"}`)
		return "", false
	}
	return req.URL, true
}

// handleJoin registers a worker (idempotent) and probes it inline, so
// a 200 response means the worker is in the ring and its state is
// current — a worker retrying /join until success knows it is
// routable once the reply says healthy.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	url, ok := joinURL(w, r)
	if !ok {
		return
	}
	name, err := rt.AddWorker(url)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.joins.Add(1)
	rt.mu.Lock()
	wk := rt.workers[name]
	rt.mu.Unlock()
	rt.probe(wk)
	states := rt.WorkerStates() // membership is sticky: one entry per ring member
	WriteJSON(w, http.StatusOK, map[string]any{"worker": name, "state": states[name], "workers": len(states)})
}

// handleLeave marks a worker draining: it stops receiving new
// requests immediately (its keys fall to ring successors) but keeps
// its ring slots, so a rejoin restores the exact keyspace it owned.
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	url, ok := joinURL(w, r)
	if !ok {
		return
	}
	remote, err := NewRemote(url, 0)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
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
		WriteError(w, http.StatusNotFound, "unknown worker %q", remote.Name())
		return
	}
	rt.leaves.Add(1)
	WriteJSON(w, http.StatusOK, map[string]any{"worker": wk.name, "state": stateDraining.String()})
}

// handleHealth reports router liveness and the per-worker states. The
// router is healthy while at least one worker is routable.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	states := rt.WorkerStates()
	healthy := 0
	for _, st := range states {
		if st == stateHealthy.String() {
			healthy++
		}
	}
	state, code := StateOK, http.StatusOK
	if healthy == 0 {
		state, code = "degraded", http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{"state": state, "healthy": healthy, "workers": states})
}

// handleMetrics serves the router's merged text metrics: fleet
// routing totals, per-worker up/latency/routed series, and ring
// stats.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "swallow_router_uptime_seconds %.3f\n", time.Since(ProcessStart).Seconds())
	fmt.Fprintf(w, "swallow_router_requests_total %d\n", rt.requests.Load())
	fmt.Fprintf(w, "swallow_router_failovers_total %d\n", rt.failovers.Load())
	fmt.Fprintf(w, "swallow_router_no_worker_total %d\n", rt.noWorker.Load())
	fmt.Fprintf(w, "swallow_router_joins_total %d\n", rt.joins.Load())
	fmt.Fprintf(w, "swallow_router_leaves_total %d\n", rt.leaves.Load())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fmt.Fprintf(w, "swallow_router_ring_members %d\n", rt.ring.Len())
	fmt.Fprintf(w, "swallow_router_ring_vnodes %d\n", rt.ring.VNodes())
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

// Join registers selfURL with the router at routerURL (the worker
// side of POST /join), retrying every 250ms until the router answers,
// 20 attempts are exhausted or ctx ends. A 200 means the worker is in
// the ring.
func Join(ctx context.Context, routerURL, selfURL string) error {
	remote, err := NewRemote(routerURL, 5*time.Second)
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(250 * time.Millisecond):
			}
		}
		if err = tell(ctx, remote, "/join", selfURL); err == nil {
			return nil
		}
	}
	return err
}

// Leave notifies the router at routerURL that selfURL is draining
// (best effort; the router's probes catch it regardless).
func Leave(ctx context.Context, routerURL, selfURL string) error {
	remote, err := NewRemote(routerURL, 5*time.Second)
	if err != nil {
		return err
	}
	return tell(ctx, remote, "/leave", selfURL)
}

// tell posts selfURL to the router's /join or /leave and wants a 200.
func tell(ctx context.Context, router *Remote, path, selfURL string) error {
	body, _ := json.Marshal(joinRequest{URL: selfURL})
	resp, err := router.Do(ctx, http.MethodPost, path, nil, http.Header{"Content-Type": {"application/json"}}, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", path[1:], router.URL(), resp.Status, errorBody(resp))
	}
	return nil
}
