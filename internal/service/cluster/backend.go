// Package cluster turns the single-process serving layer into a
// sharded fleet. It has three parts:
//
//   - Local and Remote: Local renders an artifact or a scenario under
//     a harness.Config in this process, against the harness registry
//     (the worker API's one way to run a render); Remote is the
//     router's HTTP client to one running swallow-serve — forwarding
//     with bounded retry, and health probes.
//
//   - Ring: a consistent hash ring with replicated virtual nodes over
//     worker names. Requests are keyed by the same canonical content
//     hash the result cache uses — sha256 of (artifact, projected
//     Config) or of a scenario spec — so each worker's LRU cache and
//     shape-keyed machine pool specialize on a stable slice of the
//     keyspace, and membership changes move only ~K/N keys.
//
//   - Router: an http.Handler fronting N workers. It routes
//     /artifacts, /scenarios (inline and named) and /jobs by ring
//     lookup, fails over to the ring successor when the owner is down
//     or draining, hands each worker an X-Swallow-Peers hint (the
//     key's other ring members) so a failover target can fill its
//     cache from the old owner's persistent store instead of
//     re-simulating, probes worker health periodically, accepts
//     registrations (POST /join) and drains (POST /leave), forwards
//     X-Request-ID, stamps X-Worker, and serves merged /metrics and
//     /healthz.
//
// Determinism makes routing purely a cache/pool-affinity
// optimization: any worker renders byte-identical tables, so a
// failover never changes a response body, only who computes it.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"swallow/internal/harness"
	"swallow/internal/scenario"
	"swallow/internal/service/cache"
)

// ErrUnknownArtifact marks render requests naming an artifact the
// registry does not hold. Servers map it to 404.
var ErrUnknownArtifact = errors.New("cluster: unknown artifact")

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
	// knobs the artifact reads before running, and runs under its Env.
	Config harness.Config
}

// Result is one rendered artifact plus its serving metadata.
type Result struct {
	// Body is the rendered table text.
	Body []byte
	// ContentHash is the hex sha256 of Body (the HTTP ETag value).
	ContentHash string
	// ScenarioHash is the spec's canonical content hash for scenario
	// renders, empty for named artifacts.
	ScenarioHash string
	// RenderMicros is the simulation time.
	RenderMicros int64
	// Metrics are the artifact's named headline quantities, when the
	// artifact declares an extractor — the persistent store files them
	// as provenance next to the body.
	Metrics map[string]float64
}

// Health states reported by Healthz.
const (
	StateOK       = "ok"
	StateDraining = "draining"
)

// Health is a worker liveness snapshot.
type Health struct {
	// State is StateOK for a serving worker, StateDraining while it
	// is shutting down gracefully (routers must stop sending work).
	State string `json:"state"`
	// Artifacts is the registry size; QueueDepth the async jobs
	// accepted but unfinished.
	Artifacts  int `json:"artifacts"`
	QueueDepth int `json:"queue_depth"`
}

// Local runs renders in this process, directly against the harness
// registry and the scenario compiler.
type Local struct{}

// NewLocal returns the in-process renderer.
func NewLocal() *Local { return &Local{} }

// Render runs the artifact or scenario synchronously in this process.
func (l *Local) Render(_ context.Context, req Request) (Result, error) {
	var (
		a    *harness.Artifact
		hash string
	)
	if req.Scenario != nil {
		c, err := scenario.Compile(*req.Scenario)
		if err != nil {
			return Result{}, err
		}
		a, hash = c.Artifact, c.Hash
	} else {
		if a = harness.Lookup(req.Artifact); a == nil {
			return Result{}, fmt.Errorf("%w: %q", ErrUnknownArtifact, req.Artifact)
		}
	}
	cfg := a.Project(req.Config)
	start := time.Now()
	res, err := a.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	dur := time.Since(start)
	body := []byte(a.Render(res).String())
	var metrics map[string]float64
	if a.Metrics != nil {
		metrics = a.Metrics(res)
	}
	sum := sha256.Sum256(body)
	return Result{
		Body:         body,
		ContentHash:  hex.EncodeToString(sum[:]),
		ScenarioHash: hash,
		RenderMicros: dur.Microseconds(),
		Metrics:      metrics,
	}, nil
}

// ConfigFromQuery derives a render config from URL query parameters:
// quick=1 swaps the base config for quick, iters / payloads /
// placements override the corresponding Config fields. It is the one
// query dialect of the serving layer — the worker API uses it to
// parse requests and the router uses it to compute the same affinity
// key the worker will cache under.
func ConfigFromQuery(def, quick harness.Config, q url.Values) (harness.Config, error) {
	cfg := def
	if v := q.Get("quick"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("bad quick=%q: %v", v, err)
		}
		if on {
			cfg = quick
		}
	}
	if v := q.Get("iters"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return cfg, fmt.Errorf("bad iters=%q: want a positive integer", v)
		}
		cfg.Iters = n
	}
	if v := q.Get("payloads"); v != "" {
		var payloads []int
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("bad payloads=%q: want comma-separated positive integers", v)
			}
			payloads = append(payloads, n)
		}
		cfg.GoodputPayloads = payloads
	}
	if v := q.Get("placements"); v != "" {
		var names []string
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				names = append(names, part)
			}
		}
		if len(names) == 0 {
			return cfg, fmt.Errorf("bad placements=%q: no names", v)
		}
		cfg.LatencyPlacements = names
	}
	return cfg.Canonical(), nil
}

// ArtifactKey is the affinity key for rendering a named artifact: the
// canonical cache key — sha256 over (artifact, projected config) —
// when the artifact is registered, so the router's routing key equals
// the owning worker's cache key exactly. Unknown names key on the
// raw (name, config) pair; every worker will 404 them identically.
func ArtifactKey(name string, cfg harness.Config) string {
	if a := harness.Lookup(name); a != nil {
		cfg = a.Project(cfg)
	}
	return cache.Key(name, cfg)
}

// ScenarioKey is the affinity key for a scenario spec: the canonical
// cache key over the spec's content hash and the projected config,
// matching the worker's scenario cache entry.
func ScenarioKey(c *scenario.Compiled, cfg harness.Config) string {
	return cache.Key("scenario:"+c.Hash, c.Artifact.Project(cfg))
}
