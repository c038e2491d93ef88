// Package cluster is the serving layer's request core and its fleet.
//
//   - Resolver (resolve.go): a request in any spelling the API accepts
//     — name + query string, spec bytes + query string, job JSON body —
//     becomes one Target: the artifact to run, the projected config
//     (iters is the one request knob; a grid is a spec's), and the one
//     key the memory cache, the disk store and the hash ring all file
//     it under. The worker API and the Router call the same Resolver,
//     and every request starts from harness.DefaultConfig(), so the
//     routing key is the cache key by construction. Local is resolve +
//     run in this process.
//
//   - Ring: a consistent hash ring with replicated virtual nodes over
//     worker names. Keys are Target.Key, so each worker's LRU cache and
//     shape-keyed machine pool specialize on a stable slice of the
//     keyspace, and membership changes move only ~K/N keys.
//
//   - Router and Remote: an http.Handler fronting N workers, and its
//     HTTP client to one of them. Every forwarded endpoint is a key
//     extractor in front of one forward: ring lookup, then failover to
//     the ring successor when the owner is down or draining. The Router
//     also probes worker health, accepts registrations (POST /join)
//     and drains (POST /leave), forwards X-Request-ID, stamps
//     X-Worker, and serves its own /metrics and /healthz.
//
// Determinism makes routing purely a cache/pool-affinity
// optimization: any worker renders byte-identical tables, so a
// failover never changes a response body, only who computes it.
package cluster

import (
	"context"
	"time"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// Request names one render: a registered artifact or an inline
// scenario spec (exclusive), plus the harness config to render under.
type Request struct {
	// Artifact is a registered artifact name; empty when Scenario is
	// set.
	Artifact string
	// Scenario is a parsed scenario spec to compile and render;
	// exclusive with Artifact.
	Scenario *scenario.Spec
	// Config is the render configuration; Render projects it onto the
	// knobs the artifact reads, and the run executes under its Env.
	Config harness.Config
}

// Result is one rendered artifact plus its serving metadata.
type Result struct {
	// Body is the rendered table text.
	Body []byte
	// RenderMicros is the simulation time.
	RenderMicros int64
}

// Health states reported by Healthz.
const (
	StateOK       = "ok"
	StateDraining = "draining"
)

// Health is a worker liveness snapshot: what GET /healthz writes and
// Remote.Healthz reads.
type Health struct {
	// State is StateOK for a serving worker, StateDraining while it
	// is shutting down gracefully (routers must stop sending work).
	State string `json:"state"`
	// Artifacts is the registry size; QueueDepth the async jobs
	// accepted but unfinished.
	Artifacts  int `json:"artifacts"`
	QueueDepth int `json:"queue_depth"`
}

// Local runs renders in this process: resolve, then run.
type Local struct{}

// NewLocal returns the in-process renderer.
func NewLocal() *Local { return &Local{} }

// Render resolves the Request spelling — the thing named, under
// req.Config as given — and runs it synchronously in this process.
func (l *Local) Render(_ context.Context, req Request) (Result, error) {
	var t Target
	var err error
	if req.Scenario != nil {
		t, err = compile(*req.Scenario)
	} else {
		t, err = lookup(req.Artifact)
	}
	if err != nil {
		return Result{}, err
	}
	return t.under(req.Config).Run()
}

// Run simulates the target and renders its table — the only place the
// serving layer runs an artifact.
func (t Target) Run() (Result, error) {
	start := time.Now()
	res, err := t.Artifact.Run(t.Config)
	if err != nil {
		return Result{}, err
	}
	dur := time.Since(start)
	return Result{
		Body:         []byte(t.Artifact.Render(res).String()),
		RenderMicros: dur.Microseconds(),
	}, nil
}
