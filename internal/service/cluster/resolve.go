package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"swallow/internal/harness"
	"swallow/internal/scenario"
	"swallow/internal/service/cache"
)

// Target is a resolved request: what to run and the key it is filed
// under. A request resolves once per process it passes through; the
// worker's cache, store and peer ask and the router's ring all read
// Key from here, so none of them can disagree about it.
type Target struct {
	// Artifact is what runs: a registered artifact, or the one a
	// scenario spec compiled to.
	Artifact *harness.Artifact
	// Config is the request's config projected onto the knobs Artifact
	// reads, so requests differing only in irrelevant parameters (say
	// ?iters= on an iteration-free table) are one Target.
	Config harness.Config
	// Key is cache.Key(Name, Config).
	Key string
	// Name is the identity the key and the store's provenance record
	// carry: the artifact name, or "scenario:<Hash>". Class is the short
	// form — "scenario:<12 hex>" — used as the job class (so distinct
	// scenarios round-robin against artifact jobs in the queue) and the
	// prefix of a render error; Label is what /metrics aggregates render
	// latency under, "scenario" for every spec, so cardinality stays
	// bounded however many distinct specs clients invent.
	Name, Class, Label string
	// Hash is a scenario's canonical content hash and Spec its canonical
	// JSON, so equivalent spellings of one spec share an entry and a
	// stored result stays self-describing; both empty for a registered
	// artifact.
	Hash string
	Spec []byte
}

// ErrUnknownArtifact marks requests naming an artifact the registry
// does not hold (HTTP 404).
var ErrUnknownArtifact = errors.New("unknown artifact")

// requestError is a refusal decided before any render, carrying the
// HTTP status that says whose fault it is.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// Status maps a resolve or render error to its HTTP status: malformed
// requests and configs the artifact rejects are the caller's fault
// (400, 413), unknown artifacts are 404, anything else is a server
// fault (500).
func Status(err error) int {
	var re *requestError
	switch {
	case errors.As(err, &re):
		return re.status
	case errors.Is(err, harness.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownArtifact):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// Resolver turns requests into Targets against one base config.
// Workers and the router in front of them hold equal ones; every
// method is then a pure function of the request. When a request names
// something that exists but carries bad overrides, the returned Target
// still identifies it (Name, Hash) beside the error.
type Resolver struct {
	// Def is the config every request starts from.
	Def harness.Config
}

// NewResolver starts requests from harness.DefaultConfig().
func NewResolver() Resolver { return Resolver{Def: harness.DefaultConfig()} }

// Artifact resolves GET /artifacts/{name}: a registered name plus the
// query string's overrides.
func (rs Resolver) Artifact(name string, q url.Values) (Target, error) {
	t, err := lookup(name)
	return rs.overlay(t, err, fromQuery(q))
}

// Scenario resolves POST /scenarios (and a pinned name's stored
// bytes): a spec plus the query string's overrides.
func (rs Resolver) Scenario(spec []byte, q url.Values) (Target, error) {
	t, err := parse(spec)
	return rs.overlay(t, err, fromQuery(q))
}

// Job resolves a POST /jobs body: a registered artifact name or an
// inline scenario spec (exclusive), plus the overrides.
func (rs Resolver) Job(body []byte) (Target, error) {
	var job struct {
		Artifact string          `json:"artifact"`
		Scenario json.RawMessage `json:"scenario"`
		overrides
	}
	if err := json.Unmarshal(body, &job); err != nil {
		return Target{}, badRequest("bad job body: %v", err)
	}
	if job.Artifact != "" && len(job.Scenario) > 0 {
		return Target{}, badRequest("artifact and scenario are exclusive")
	}
	if len(job.Scenario) > 0 {
		t, err := parse(job.Scenario)
		return rs.overlay(t, err, job.overrides)
	}
	t, err := lookup(job.Artifact)
	return rs.overlay(t, err, job.overrides)
}

func lookup(name string) (Target, error) {
	a := harness.Lookup(name)
	if a == nil {
		return Target{}, fmt.Errorf("%w %q (GET /artifacts lists them)", ErrUnknownArtifact, name)
	}
	return Target{Artifact: a, Name: name, Class: name, Label: name}, nil
}

// parse and compile are the serving layer's only calls into the
// scenario front end. Malformed specs — unknown structures, off-grid
// placements, empty sweep axes, absurd grids — fail with a field-level
// message wrapping harness.ErrBadConfig.
func parse(spec []byte) (Target, error) {
	s, err := scenario.Parse(spec)
	if err != nil {
		return Target{}, err
	}
	return compile(s)
}

func compile(s scenario.Spec) (Target, error) {
	c, err := scenario.Compile(s)
	if err != nil {
		return Target{}, err
	}
	canonical, err := json.Marshal(c.Spec.Canonical())
	if err != nil {
		return Target{}, fmt.Errorf("canonicalizing spec: %v", err)
	}
	return Target{Artifact: c.Artifact, Name: "scenario:" + c.Hash, Class: "scenario:" + c.Hash[:12],
		Label: "scenario", Hash: c.Hash, Spec: canonical}, nil
}

// under projects cfg onto the target's artifact and derives the key.
func (t Target) under(cfg harness.Config) Target {
	t.Config = t.Artifact.Project(cfg)
	t.Key = cache.Key(t.Name, t.Config)
	return t
}

// overrides is what a request carries on top of a base config, decoded
// from either spelling — a job body's own fields, or the query string
// — but not yet applied: positive Iters and non-empty payload /
// placement lists replace the base's fields. err is the decode's own
// failure, held back until the thing the request names is known to
// exist (an unknown artifact is a 404 whatever its query says).
type overrides struct {
	Config harness.Config `json:"config"`
	err    error
}

// overlay is the one place overrides land on a base config.
func (rs Resolver) overlay(t Target, err error, o overrides) (Target, error) {
	if err == nil {
		err = o.err
	}
	if err != nil {
		return t, err
	}
	cfg := rs.Def
	if o.Config.Iters < 0 {
		return t, badRequest("bad config: iters must be positive")
	}
	if o.Config.Iters > harness.MaxIters {
		return t, badRequest("bad config: iters %d above the %d bound", o.Config.Iters, harness.MaxIters)
	}
	if o.Config.Iters > 0 {
		cfg.Iters = o.Config.Iters
	}
	for _, p := range o.Config.GoodputPayloads {
		if p <= 0 {
			return t, badRequest("bad config: payloads must be positive")
		}
	}
	if len(o.Config.GoodputPayloads) > 0 {
		cfg.GoodputPayloads = o.Config.GoodputPayloads
	}
	if len(o.Config.LatencyPlacements) > 0 {
		cfg.LatencyPlacements = o.Config.LatencyPlacements
	}
	return t.under(cfg), nil
}

// fromQuery decodes the query-string spelling: iters=N, payloads=a,b,
// placements=x,y.
func fromQuery(q url.Values) (o overrides) {
	var err error
	if v := q.Get("iters"); v != "" {
		if o.Config.Iters, err = strconv.Atoi(v); err != nil || o.Config.Iters <= 0 {
			return overrides{err: badRequest("bad iters=%q: want a positive integer", v)}
		}
	}
	if v := q.Get("payloads"); v != "" {
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return overrides{err: badRequest("bad payloads=%q: want comma-separated positive integers", v)}
			}
			o.Config.GoodputPayloads = append(o.Config.GoodputPayloads, n)
		}
	}
	if v := q.Get("placements"); v != "" {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				o.Config.LatencyPlacements = append(o.Config.LatencyPlacements, part)
			}
		}
		if len(o.Config.LatencyPlacements) == 0 {
			return overrides{err: badRequest("bad placements=%q: no names", v)}
		}
	}
	return o
}
