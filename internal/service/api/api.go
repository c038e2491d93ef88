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
//	PUT  /scenarios/{name}  pin name -> spec hash (persisted in the store)
//	GET  /scenarios/{name}  re-render a pinned scenario by name
//	GET  /scenarios/{name}/versions  pin history with change flags
//	GET  /cache/{key}       read one cached/stored result (peer cache fill)
//	POST /jobs              async render submission (429 when saturated)
//	GET  /jobs/{id}         job status / result polling
//	GET  /healthz           liveness probe
//	GET  /metrics           text metrics (requests, cache, store, queue, latency)
//
// Renders are pure functions of (artifact, harness.Config), so a cache
// hit is byte-identical to a cold run and the ETag doubles as a
// content hash. Synchronous GETs run inline under singleflight (a
// burst of identical requests costs one simulation); POST /jobs puts
// the work on the worker pool instead and reports backpressure as
// 429 + Retry-After when the queue is full.
//
// The result path is tiered (see store_tier.go): memory LRU, then the
// disk store, then a peer cache ask, then the render itself, in
// process (cluster.Local) — X-Cache reports HIT, HIT-DISK, HIT-PEER or
// MISS accordingly. With no Store configured the disk and peer tiers
// are inert and the original two-state HIT/MISS behavior is unchanged.
//
// POST /scenarios opens the experiment surface beyond the registry:
// the body is a declarative internal/scenario spec (workload structure
// x placement x operating point x sweep axes), compiled and validated
// server-side — malformed specs are 400s with a field-level message —
// and cached under the spec's canonical content hash with the same
// singleflight and ETag discipline as named artifacts, so resubmitting
// an equivalent spec (however spelled) is a cache hit. POST /jobs
// accepts a "scenario" field as the async variant; submitted scenarios
// are their own job class, so the queue's per-class round-robin keeps
// a heavy scenario from starving cheap artifact jobs.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/scenario"
	"swallow/internal/service/cache"
	"swallow/internal/service/cluster"
	"swallow/internal/service/queue"
	"swallow/internal/service/store"
)

// maxSpecBytes bounds a submitted scenario body.
const maxSpecBytes = 1 << 20

// Options configures a Server. Zero fields take the stated defaults.
type Options struct {
	// DefaultConfig is the render config when a request does not
	// override it. Zero means harness.DefaultConfig().
	DefaultConfig harness.Config
	// QuickConfig serves requests carrying quick=true. Zero means
	// harness.QuickConfig().
	QuickConfig harness.Config
	// CacheBytes / CacheEntries bound the result cache (<= 0: 64 MiB /
	// 256 entries).
	CacheBytes   int64
	CacheEntries int
	// CacheTTL expires cached renders that age past it; 0 (the
	// default) keeps them until capacity evicts, which is sound
	// because artifacts are pure.
	CacheTTL time.Duration
	// Workers / QueueCapacity / JobRetention shape the job queue
	// (<= 0: 1 worker, 16 slots, 64 retained jobs).
	Workers       int
	QueueCapacity int
	JobRetention  int
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
	// PeerTimeout bounds one peer cache-fill HTTP ask (<= 0: 3s).
	PeerTimeout time.Duration
}

// Server wires the in-process renderer, cache and queue behind one
// http.Handler.
type Server struct {
	// def and quick carry Options.Env, and through them so does every
	// config a request derives.
	def, quick harness.Config
	local      *cluster.Local
	cache      *cache.Cache
	store      *store.Store
	version    string // registry version the store validates against
	peers      *http.Client
	queue      *queue.Queue
	met        *metrics
	mux        *http.ServeMux
	accessLog  io.Writer
	reqSeq     atomic.Uint64
	draining   atomic.Bool
}

// New builds a Server and starts its worker pool. Callers must Close
// it to drain the pool.
func New(opts Options) *Server {
	// Fill only the missing Iters so a caller config carrying just
	// grid overrides keeps them.
	if opts.DefaultConfig.Iters == 0 {
		opts.DefaultConfig.Iters = harness.DefaultConfig().Iters
	}
	if opts.QuickConfig.Iters == 0 {
		opts.QuickConfig.Iters = harness.QuickConfig().Iters
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 256
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueCapacity <= 0 {
		opts.QueueCapacity = 16
	}
	if opts.JobRetention <= 0 {
		opts.JobRetention = 64
	}
	opts.DefaultConfig.Env, opts.QuickConfig.Env = opts.Env, opts.Env
	if opts.Store == nil {
		opts.Store = store.Memory(RegistryVersion())
	}
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = 3 * time.Second
	}
	s := &Server{
		def:       opts.DefaultConfig,
		quick:     opts.QuickConfig,
		local:     cluster.NewLocal(),
		cache:     cache.New(opts.CacheBytes, opts.CacheEntries, cache.WithTTL(opts.CacheTTL)),
		store:     opts.Store,
		version:   opts.Store.Version(),
		peers:     &http.Client{Timeout: opts.PeerTimeout},
		queue:     queue.New(opts.Workers, opts.QueueCapacity, opts.JobRetention),
		met:       newMetrics(),
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
	s.mux.HandleFunc("GET /cache/{key}", s.handleCacheGet)
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
		s.met.request()
		start := time.Now()
		id := s.requestID(r)
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

// Draining reports the drain state.
func (s *Server) Draining() bool { return s.draining.Load() }

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// configFromQuery derives the render config from URL query parameters
// via the cluster package's shared dialect (the router uses the same
// parse to compute matching affinity keys): quick=1 starts from the
// quick config, iters / payloads / placements override the
// corresponding Config fields.
func (s *Server) configFromQuery(q url.Values) (harness.Config, error) {
	return cluster.ConfigFromQuery(s.def, s.quick, q)
}

// runStatus maps a render error to its HTTP status: config errors are
// the caller's fault (400), unknown artifacts are 404, anything else
// is a server fault (500).
func runStatus(err error) int {
	if errors.Is(err, harness.ErrBadConfig) {
		return http.StatusBadRequest
	}
	if errors.Is(err, cluster.ErrUnknownArtifact) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

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
	writeJSON(w, http.StatusOK, out)
}

// render runs one artifact under the config and returns its cached (or
// freshly filled) entry, recording per-artifact latency for /metrics.
// The config is projected to the knobs the artifact actually reads
// before keying, so requests differing only in irrelevant parameters
// (e.g. ?iters= on an iteration-free table) share one cache entry
// instead of re-running a byte-identical simulation.
// The returned string is the X-Cache state (HIT, HIT-DISK, HIT-PEER
// or MISS — see fillTiered); the duration is the cold render time,
// zero unless this request actually simulated. Handlers surface it as
// X-Render-Micros so clients (and the access log) can split server
// time into queue wait vs simulation.
func (s *Server) render(a *harness.Artifact, cfg harness.Config, peers []string) (cache.Entry, string, time.Duration, error) {
	cfg = a.Project(cfg)
	key := cache.Key(a.Name, cfg)
	return s.fillTiered(key, a.Name, a.Name, nil, peers, func() (cluster.Result, error) {
		// The fill is shared across requests by singleflight, so it
		// runs under its own context, not any one caller's.
		return s.local.Render(context.Background(),
			cluster.Request{Artifact: a.Name, Config: cfg})
	})
}

// handleArtifact serves one artifact synchronously: cache-aware, with
// the content hash as a strong ETag (byte-identical by determinism)
// and X-Cache reporting HIT or MISS.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	a := harness.Lookup(name)
	if a == nil {
		writeError(w, http.StatusNotFound, "unknown artifact %q (GET /artifacts lists them)", name)
		return
	}
	cfg, err := s.configFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if v := r.URL.Query().Get("trace"); v != "" {
		if on, err := strconv.ParseBool(v); err == nil && on {
			s.handleArtifactTrace(w, r, a, cfg)
			return
		}
	}
	start := time.Now()
	entry, state, renderDur, err := s.render(a, cfg, peerList(r))
	if err != nil {
		writeError(w, runStatus(err), "%s: %v", name, err)
		return
	}
	setTimingHeaders(w, start, renderDur)
	writeCachedEntry(w, r, entry, state)
}

// setTimingHeaders splits server-side time for the client: the cold
// render duration (zero on a hit) and everything else — singleflight
// wait, cache and handler overhead — as queue wait.
func setTimingHeaders(w http.ResponseWriter, start time.Time, renderDur time.Duration) {
	total := time.Since(start)
	wait := total - renderDur
	if wait < 0 {
		wait = 0
	}
	w.Header().Set("X-Render-Micros", strconv.FormatInt(renderDur.Microseconds(), 10))
	w.Header().Set("X-Queue-Micros", strconv.FormatInt(wait.Microseconds(), 10))
}

// writeCachedEntry is the shared epilogue of every cache-backed text
// render: the content hash as a strong ETag, the tiered X-Cache state
// (HIT | HIT-DISK | HIT-PEER | MISS), If-None-Match conditional
// handling, then the body.
func writeCachedEntry(w http.ResponseWriter, r *http.Request, entry cache.Entry, state string) {
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

// renderScenario runs a compiled scenario under the config and
// returns its cached (or freshly filled) entry. The cache key is the
// spec's canonical content hash (plus the projected config), so
// equivalent spellings of one scenario share an entry and concurrent
// identical submissions share one simulation, exactly like named
// artifacts. Render latency aggregates under the fixed "scenario"
// label to keep /metrics cardinality bounded however many distinct
// specs clients invent; the disk store files the entry with the
// canonical spec as provenance, so a stored scenario result remains
// self-describing.
func (s *Server) renderScenario(c *scenario.Compiled, cfg harness.Config, peers []string) (cache.Entry, string, time.Duration, error) {
	cfg = c.Artifact.Project(cfg)
	key := cache.Key("scenario:"+c.Hash, cfg)
	canonical, _ := json.Marshal(c.Spec.Canonical())
	return s.fillTiered(key, "scenario", "scenario:"+c.Hash, canonical, peers, func() (cluster.Result, error) {
		return s.local.Render(context.Background(),
			cluster.Request{Scenario: &c.Spec, Config: cfg})
	})
}

// handleScenario compiles and runs a submitted spec synchronously.
// Malformed specs (unknown structures, off-grid placements, empty
// sweep axes, absurd grids...) fail validation with a field-level
// message and map to 400; the run itself is cache-aware with the
// body's content hash as a strong ETag and X-Scenario-Hash carrying
// the spec identity the result is cached under.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeError(w, runStatus(err), "%v", err)
		return
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		writeError(w, runStatus(err), "%v", err)
		return
	}
	cfg, err := s.configFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.scenario()
	start := time.Now()
	entry, state, renderDur, err := s.renderScenario(c, cfg, peerList(r))
	if err != nil {
		writeError(w, runStatus(err), "scenario %s: %v", c.Spec.Name, err)
		return
	}
	setTimingHeaders(w, start, renderDur)
	w.Header().Set("X-Scenario-Hash", c.Hash)
	writeCachedEntry(w, r, entry, state)
}

// jobRequest is the POST /jobs body: either a registered artifact
// name or an inline scenario spec.
type jobRequest struct {
	Artifact string `json:"artifact,omitempty"`
	// Scenario is the async variant of POST /scenarios; exclusive with
	// Artifact. The job class is the spec hash, so distinct submitted
	// scenarios round-robin against artifact jobs in the queue.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Quick starts from the quick config before Config overrides.
	Quick bool `json:"quick,omitempty"`
	// Config optionally overrides render knobs; zero fields keep the
	// base config's values.
	Config *harness.Config `json:"config,omitempty"`
}

// jobResult is what a finished job stores in the queue.
type jobResult struct {
	entry cache.Entry
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

// handleSubmit accepts an async render job. A saturated queue is
// backpressure: 429 with Retry-After; a draining server refuses new
// jobs outright (503) since it cannot promise to retain the result.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining; resubmit elsewhere")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading job body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "job body exceeds %d bytes", maxSpecBytes)
		return
	}
	var req jobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad job body: %v", err)
		return
	}
	if req.Artifact != "" && len(req.Scenario) > 0 {
		writeError(w, http.StatusBadRequest, "artifact and scenario are exclusive")
		return
	}
	var a *harness.Artifact
	var compiled *scenario.Compiled
	label := req.Artifact
	if len(req.Scenario) > 0 {
		spec, err := scenario.Parse(req.Scenario)
		if err != nil {
			writeError(w, runStatus(err), "%v", err)
			return
		}
		if compiled, err = scenario.Compile(spec); err != nil {
			writeError(w, runStatus(err), "%v", err)
			return
		}
		label = "scenario:" + compiled.Hash[:12]
	} else {
		if a = harness.Lookup(req.Artifact); a == nil {
			writeError(w, http.StatusNotFound, "unknown artifact %q (GET /artifacts lists them)", req.Artifact)
			return
		}
	}
	cfg := s.def
	if req.Quick {
		cfg = s.quick
	}
	if req.Config != nil {
		if req.Config.Iters < 0 {
			writeError(w, http.StatusBadRequest, "bad config: iters must be positive")
			return
		}
		if req.Config.Iters > 0 {
			cfg.Iters = req.Config.Iters
		}
		if len(req.Config.GoodputPayloads) > 0 {
			for _, p := range req.Config.GoodputPayloads {
				if p <= 0 {
					writeError(w, http.StatusBadRequest, "bad config: payloads must be positive")
					return
				}
			}
			cfg.GoodputPayloads = req.Config.GoodputPayloads
		}
		if len(req.Config.LatencyPlacements) > 0 {
			cfg.LatencyPlacements = req.Config.LatencyPlacements
		}
	}
	cfg = cfg.Canonical()
	run := func() (any, error) {
		var entry cache.Entry
		var err error
		// Async jobs carry no peer hints (the router header belongs to
		// the submitting request); the disk tier still applies.
		if compiled != nil {
			entry, _, _, err = s.renderScenario(compiled, cfg, nil)
		} else {
			entry, _, _, err = s.render(a, cfg, nil)
		}
		if err != nil {
			return nil, err
		}
		return jobResult{entry: entry}, nil
	}
	id, err := s.queue.Submit(label, run)
	switch err {
	case nil:
	case queue.ErrFull:
		s.met.reject()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (capacity %d); retry later", s.queue.Capacity())
		return
	case queue.ErrClosed:
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Count the scenario only once the queue has accepted it, matching
	// the sync path (which counts only submissions that reach a render).
	if compiled != nil {
		s.met.scenario()
	}
	writeJSON(w, http.StatusAccepted, jobView{
		ID:       id,
		Artifact: label,
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
		writeError(w, http.StatusNotFound, "unknown job %q (results are retained for a bounded history)", id)
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
	if res, ok := j.Result.(jobResult); ok {
		view.ETag = `"` + res.entry.ContentHash + `"`
		view.Result = string(res.entry.Body)
	}
	writeJSON(w, http.StatusOK, view)
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
	writeJSON(w, code, map[string]any{
		"status":      state,
		"state":       state,
		"artifacts":   len(harness.Artifacts()),
		"queue_depth": s.queue.Depth(),
	})
}

// handleMetrics serves the text metrics snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.met.write(w, s.cache.Stats(), s.store.Stats(), s.queue.Depth(), s.queue.Capacity(),
		core.SharedPool().Stats())
}
