// Package api assembles the serving layer: HTTP JSON handlers over the
// harness artifact registry, backed by the deterministic result cache
// (internal/service/cache) and the bounded job queue
// (internal/service/queue).
//
// Endpoints:
//
//	GET  /artifacts         registered artifact index (name, description)
//	GET  /artifacts/{name}  synchronous render, cache-aware, ETag'd
//	POST /scenarios         compile + run a submitted scenario spec
//	GET  /scenarios         list pinned scenario names
//	PUT  /scenarios/{name}  pin name -> spec (persisted in the store)
//	GET  /scenarios/{name}  re-render a pinned scenario by name
//	GET  /scenarios/{name}/versions  pin history (version, hash, time)
//	POST /jobs              async render submission (429 when saturated)
//	GET  /jobs/{id}         job status / result polling
//	GET  /healthz           liveness probe
//	GET  /metrics           text metrics (requests, cache, store, queue, latency)
//
// Every render endpoint is one pipeline, entered in a different
// spelling: resolve → memory → disk → run.
//
// Resolve (cluster.Resolver, shared with the router) turns the request
// — a registered name, a declarative internal/scenario spec, or a job
// body carrying either, plus its one override, iters=N, the settling
// window — into a cluster.Target: the artifact to run, the config
// projected onto what it reads, and the one key everything below files
// it under. A sweep's grid is its spec's, so a custom grid is a spec
// POSTed to /scenarios and is final, validated and bounded, here. A
// request that does not resolve is refused here with a field-level
// message: 400, 404 or 413, never a 500.
//
// Server.render then takes the first tier that holds the key: the
// memory LRU, the disk store, and last the simulation, whose result is
// persisted. X-Cache says which: HIT, HIT-DISK or MISS; with no Store
// configured the disk tier is inert. Renders are pure functions of the
// Target, so every tier serves bytes identical to a cold run and the
// ETag doubles as a content hash; equivalent spellings of one spec
// share an entry; a burst of identical requests shares one simulation
// (singleflight); a render that panics fails its own request and
// nothing else.
//
// Synchronous endpoints run that inline; POST /jobs runs it on the
// worker pool, 429 + Retry-After when the queue is full, each scenario
// its own job class so per-class round-robin keeps a heavy scenario
// from starving cheap artifact jobs. A job's ID (cluster.JobID) carries
// the key its body resolved to, so a fronting router sends every poll
// to that key's workers with no record of who accepted it. The last
// jobRetention finished jobs stay pollable.
package api

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/service/cache"
	"swallow/internal/service/cluster"
	"swallow/internal/service/queue"
	"swallow/internal/service/store"
)

// Options configures a Server. Zero fields take the stated defaults.
type Options struct {
	// CacheBytes / CacheEntries bound the result cache (<= 0: 64 MiB /
	// 256 entries).
	CacheBytes   int64
	CacheEntries int
	// Workers / QueueCapacity shape the job queue (<= 0: 1 worker, 16
	// slots).
	Workers       int
	QueueCapacity int
	// AccessLog receives one structured JSON line per request (see
	// accessRecord). Nil disables access logging.
	AccessLog io.Writer
	// Env is how every plain render runs (pool, sweep width); nil is
	// production. A ?trace=1 render runs under a traced Env of its own.
	Env *core.Env
	// Store is the disk tier under the memory cache. Nil means a
	// memory-only store under RegistryVersion(): no disk persistence,
	// but named scenarios still work for the process lifetime.
	Store *store.Store
}

// jobRetention is how many finished jobs stay pollable.
const jobRetention = 64

// Server wires the in-process renderer, cache and queue behind one
// http.Handler.
type Server struct {
	// resolver's base config carries Options.Env, and through it so
	// does every config a request derives.
	resolver  cluster.Resolver
	cache     *cache.Cache
	store     *store.Store
	queue     *queue.Queue
	met       *metrics
	mux       *http.ServeMux
	accessLog io.Writer
	reqSeq    atomic.Uint64
	draining  atomic.Bool
}

// New builds a Server and starts its worker pool. Callers must Close
// it to drain the pool.
func New(opts Options) *Server {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 256
	}
	if opts.QueueCapacity <= 0 {
		opts.QueueCapacity = 16
	}
	if opts.Store == nil {
		opts.Store = store.Memory(RegistryVersion())
	}
	resolver := cluster.NewResolver()
	resolver.Def.Env = opts.Env
	s := &Server{
		resolver:  resolver,
		cache:     cache.New(opts.CacheBytes, opts.CacheEntries),
		store:     opts.Store,
		queue:     queue.New(opts.Workers, opts.QueueCapacity, jobRetention),
		met:       &metrics{renders: make(map[string]*latHist)},
		mux:       http.NewServeMux(),
		accessLog: opts.AccessLog,
	}
	s.mux.HandleFunc("GET /artifacts", s.handleArtifacts)
	s.mux.HandleFunc("GET /artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("POST /scenarios", s.handleScenario)
	s.mux.HandleFunc("GET /scenarios", s.handleScenarioList)
	s.mux.HandleFunc("PUT /scenarios/{name}", s.handleScenarioPin)
	s.mux.HandleFunc("GET /scenarios/{name}", s.handleScenarioNamed)
	s.mux.HandleFunc("GET /scenarios/{name}/versions", s.handleScenarioVersions)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP entry point: request counting, X-Request-ID
// generation/propagation, and structured JSON access logging around
// the route mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(1)
		start := time.Now()
		id := cluster.RequestID(r, "", &s.reqSeq)
		w.Header().Set("X-Request-ID", id)
		rw := &statusWriter{ResponseWriter: w}
		s.mux.ServeHTTP(rw, r)
		s.logAccess(rw, r, id, start)
	})
}

// Close drains the job queue gracefully: every accepted job completes
// before Close returns. Call after the HTTP listener has stopped
// accepting connections.
func (s *Server) Close() { s.queue.Close() }

// SetDraining flips the graceful-shutdown state. While draining,
// /healthz answers 503 with state "draining" — so a fronting router
// removes this worker before the listener closes — and new async job
// submissions are refused; in-flight and routed-synchronous work
// still completes.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// artifactInfo is one /artifacts index row.
type artifactInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	URL         string `json:"url"`
}

// handleArtifacts serves the registry's artifact index.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	arts := harness.Artifacts()
	out := make([]artifactInfo, len(arts))
	for i, a := range arts {
		out[i] = artifactInfo{
			Name:        a.Name,
			Description: a.Description,
			URL:         "/artifacts/" + url.PathEscape(a.Name),
		}
	}
	cluster.WriteJSON(w, http.StatusOK, out)
}

// render is the one place a resolved request gets its bytes, under the
// memory cache's singleflight: the fill consults the disk store, and
// only then runs the target in process, persisting the result. The
// returned state names the tier that produced the body (singleflight
// followers and memory hits report HIT); disk-served bodies are
// verified (sha256) before use, so every state serves bytes identical
// to a cold render. renderDur is the simulation time, zero unless this
// call actually simulated — handlers surface it as X-Render-Micros so
// clients and the access log can split server time into waiting and
// simulating. A panic below here is contained: it becomes this
// request's error (followers of the fill get cache.ErrFillPanicked),
// the stack goes to the log, and the key stays retryable.
func (s *Server) render(t cluster.Target) (entry cache.Entry, state string, renderDur time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("render %s (key %s) panicked: %v\n%s", t.Class, t.Key, p, debug.Stack())
			err = fmt.Errorf("render panicked: %v", p)
		}
	}()
	state = cacheMiss
	entry, hit, err := s.cache.GetOrFill(t.Key, func() ([]byte, error) {
		if ent, ok := s.store.Get(t.Key); ok {
			state = cacheDisk
			return ent.Body, nil
		}
		// The fill is shared across requests by singleflight, so it
		// belongs to no one caller.
		res, err := t.Run()
		if err != nil {
			return nil, err
		}
		renderDur = time.Duration(res.RenderMicros) * time.Microsecond
		s.met.observe(t.Label, renderDur)
		s.store.Put(t.Key, res.Body, store.Meta{Artifact: t.Name})
		return res.Body, nil
	})
	if hit {
		state = cacheMemory
	}
	return entry, state, renderDur, err
}

// serve is the synchronous tail every render endpoint shares: render,
// then the timing split — the cold render duration (zero on a hit) and
// everything else (singleflight wait, cache and handler overhead) as
// queue wait — X-Scenario-Hash for a scenario, and the entry itself.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, t cluster.Target) {
	if t.Hash != "" {
		s.met.scenarios.Add(1)
		w.Header().Set("X-Scenario-Hash", t.Hash)
	}
	start := time.Now()
	entry, state, renderDur, err := s.render(t)
	if err != nil {
		cluster.WriteError(w, cluster.Status(err), "%s: %v", t.Class, err)
		return
	}
	setTimingHeaders(w, start, renderDur)
	writeEntry(w, r, entry, state)
}

func setTimingHeaders(w http.ResponseWriter, start time.Time, renderDur time.Duration) {
	wait := max(time.Since(start)-renderDur, 0)
	w.Header().Set("X-Render-Micros", strconv.FormatInt(renderDur.Microseconds(), 10))
	w.Header().Set("X-Queue-Micros", strconv.FormatInt(wait.Microseconds(), 10))
}

// writeEntry writes one cached or stored body: the content hash as a
// strong ETag (byte-identical by determinism), the X-Cache state (HIT
// | HIT-DISK | MISS), If-None-Match handling, then the body.
func writeEntry(w http.ResponseWriter, r *http.Request, entry cache.Entry, state string) {
	etag := `"` + entry.ContentHash + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Cache", state)
	if match := r.Header.Get("If-None-Match"); match == "*" || (match != "" && strings.Contains(match, etag)) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(entry.Body)
}

// handleArtifact serves one registered artifact; ?trace=1 takes the
// uncached, traced route instead (trace_handler.go).
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	t, err := s.resolver.Artifact(r.PathValue("name"), r.URL.Query())
	if err != nil {
		cluster.WriteError(w, cluster.Status(err), "%v", err)
		return
	}
	if on, _ := strconv.ParseBool(r.URL.Query().Get("trace")); on {
		s.handleArtifactTrace(w, t)
		return
	}
	s.serve(w, r, t)
}

// handleScenario compiles and runs a submitted spec. A malformed one
// is a 400 with a field-level message; an equivalent one, however
// spelled, is a cache hit.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	body, err := cluster.ReadBody(r)
	var t cluster.Target
	if err == nil {
		t, err = s.resolver.Scenario(body, r.URL.Query())
	}
	if err != nil {
		cluster.WriteError(w, cluster.Status(err), "%v", err)
		return
	}
	s.serve(w, r, t)
}

// jobView is the GET /jobs/{id} (and POST /jobs) response body.
type jobView struct {
	ID       string `json:"id"`
	Artifact string `json:"artifact"`
	Status   string `json:"status"`
	URL      string `json:"url"`
	ETag     string `json:"etag,omitempty"`
	Result   string `json:"result,omitempty"`
	Error    string `json:"error,omitempty"`
	// QueueWaitMicros / RunMicros decompose a finished job's life:
	// submission-to-start wait vs worker run time.
	QueueWaitMicros int64 `json:"queue_wait_micros,omitempty"`
	RunMicros       int64 `json:"run_micros,omitempty"`
}

// handleSubmit accepts an async render job (see Resolver.Job for the
// body): the same render, on the worker pool. A saturated queue is
// backpressure: 429 with Retry-After; a draining server refuses new
// jobs outright (503) since it cannot promise to retain the result.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		cluster.WriteError(w, http.StatusServiceUnavailable, "server draining; resubmit elsewhere")
		return
	}
	body, err := cluster.ReadBody(r)
	var t cluster.Target
	if err == nil {
		t, err = s.resolver.Job(body)
	}
	if err != nil {
		cluster.WriteError(w, cluster.Status(err), "%v", err)
		return
	}
	id := cluster.JobID(t.Key)
	err = s.queue.Submit(id, t.Class, func() (any, error) {
		entry, _, _, err := s.render(t)
		return entry, err
	})
	switch err {
	case nil:
	case queue.ErrFull:
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		cluster.WriteError(w, http.StatusTooManyRequests, "job queue full (capacity %d); retry later", s.queue.Capacity())
		return
	case queue.ErrClosed:
		cluster.WriteError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	// Count the scenario only once the queue has accepted it, matching
	// the sync path (which counts only submissions that reach a render).
	if t.Hash != "" {
		s.met.scenarios.Add(1)
	}
	cluster.WriteJSON(w, http.StatusAccepted, jobView{
		ID:       id,
		Artifact: t.Class,
		Status:   string(queue.StatusQueued),
		URL:      "/jobs/" + id,
	})
}

// handleJob serves job status polling; a done job carries the rendered
// body and its ETag inline.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.queue.Get(id)
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, "unknown job %q (results are retained for a bounded history)", id)
		return
	}
	view := jobView{
		ID:       j.ID,
		Artifact: j.Label,
		Status:   string(j.Status),
		URL:      "/jobs/" + j.ID,
		Error:    j.Err,
	}
	if !j.Started.IsZero() {
		view.QueueWaitMicros = j.Started.Sub(j.Submitted).Microseconds()
		if !j.Finished.IsZero() {
			view.RunMicros = j.Finished.Sub(j.Started).Microseconds()
		}
	}
	if entry, ok := j.Result.(cache.Entry); ok {
		view.ETag = `"` + entry.ContentHash + `"`
		view.Result = string(entry.Body)
	}
	cluster.WriteJSON(w, http.StatusOK, view)
}

// handleHealth is the liveness probe. During graceful shutdown it
// answers 503 with state "draining" so a fronting router removes
// this worker from its ring before the listener closes, instead of
// discovering the death mid-request.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state, code := cluster.StateOK, http.StatusOK
	if s.draining.Load() {
		state, code = cluster.StateDraining, http.StatusServiceUnavailable
	}
	cluster.WriteJSON(w, code, cluster.Health{State: state, Artifacts: len(harness.Artifacts()), QueueDepth: s.queue.Depth()})
}

// handleMetrics serves the text metrics snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.met.write(w, s.cache.Stats(), s.store.Stats(), s.queue.Depth(), s.queue.Capacity(),
		core.SharedPool().Stats())
}
