// Package harness is the experiment registry that cmd/swallow-tables,
// the service, bench/ and the golden determinism tests all drive. Each
// table or figure of the paper registers exactly once — a name, a Run
// that regenerates it from simulation, and a Render that formats the
// result — and every driver becomes a loop over Artifacts() instead of
// a hand-maintained list.
//
// Runs take a Config (workload-length knob today) and return a typed
// result; Register erases the type so heterogeneous artifacts share
// one registry, while the generic Spec keeps each registration
// type-checked. How a run executes — which machine pool, how wide the
// inner sweep.Map loops fan out, whether a flight recorder rides along
// — is Config.Env, which never changes a byte of output.
package harness

import (
	"errors"
	"fmt"
	"strings"

	"swallow/internal/core"
	"swallow/internal/report"
)

// ErrBadConfig marks run failures caused by an invalid Config value
// (e.g. an unknown latency placement name) rather than a simulation
// fault. Drivers use errors.Is to map these to caller errors (HTTP
// 400) instead of server faults.
var ErrBadConfig = errors.New("harness: bad config")

// MetricName sanitises label parts into a benchmark metric unit (no
// whitespace allowed in testing.B.ReportMetric units).
func MetricName(parts ...string) string {
	s := strings.Join(parts, "_")
	s = strings.ReplaceAll(s, " ", "-")
	s = strings.ReplaceAll(s, ",", "+")
	return s
}

// Config carries the run-size knobs shared by every artifact, plus
// optional sweep-grid overrides for the artifacts that expose them.
// The zero value of every override means "canonical grid", so the
// default configs render byte-identical to the pre-override outputs.
// Config is JSON-serialisable so network drivers (internal/service)
// can accept it from API callers.
type Config struct {
	// Iters is the per-thread workload length for the settling
	// experiments (power and throughput measurements).
	Iters int `json:"iters"`
	// GoodputPayloads overrides the Section V-B payload-size grid of
	// the goodput artifact. Nil or empty means the canonical grid.
	GoodputPayloads []int `json:"goodput_payloads,omitempty"`
	// LatencyPlacements filters the Section V-C placement list of the
	// latency artifact by placement name. Nil or empty means all
	// canonical placements; an unknown name is a run error.
	LatencyPlacements []string `json:"latency_placements,omitempty"`
	// Env is how the run executes (core.Env); nil is production. It is
	// no part of what the run computes, so it is invisible to JSON and
	// with it to every cache key, store key and scenario hash.
	Env *core.Env `json:"-"`
}

// Canonical returns cfg with empty override slices normalised to nil,
// so configs that request the canonical grids hash identically however
// they were spelled (nil vs empty slice). Result caches key on it.
func (c Config) Canonical() Config {
	if len(c.GoodputPayloads) == 0 {
		c.GoodputPayloads = nil
	}
	if len(c.LatencyPlacements) == 0 {
		c.LatencyPlacements = nil
	}
	return c
}

// Knobs is a bitmask of the Config fields an artifact's Run actually
// reads, declared at registration so drivers can collapse equivalent
// configs (Project) instead of re-running byte-identical simulations.
type Knobs uint8

const (
	// UsesIters marks artifacts whose Run reads Config.Iters.
	UsesIters Knobs = 1 << iota
	// UsesGoodputPayloads marks artifacts reading the payload grid.
	UsesGoodputPayloads
	// UsesLatencyPlacements marks artifacts reading the placement list.
	UsesLatencyPlacements
)

// MaxIters bounds Config.Iters: enough for any settling window (it is
// the benchmark's own compute load), and far below the 32-bit loop
// count a load program can hold, which a larger value would overflow.
// Runs and the service refuse more with ErrBadConfig.
const MaxIters = 1 << 20

// DefaultConfig is the settled-measurement configuration the CLI and
// golden comparisons use by default.
func DefaultConfig() Config { return Config{Iters: 20000} }

// Artifact is one registered table or figure, type-erased. Use
// Register to build one from a typed Spec.
type Artifact struct {
	// Name is the stable CLI/bench identifier, e.g. "fig3".
	Name string
	// Description is a one-line human summary, shown by
	// swallow-tables -list and the service's artifact index.
	Description string
	// Uses declares which Config fields Run reads; see Project.
	Uses Knobs
	// Run regenerates the artifact from simulation.
	Run func(Config) (any, error)
	// Render formats a Run result.
	Render func(any) *report.Table
	// Metrics extracts named headline quantities from a Run result for
	// benchmark reporting. May be nil.
	Metrics func(any) map[string]float64
}

// Project reduces cfg to the fields this artifact's Run reads,
// canonicalised: configs differing only in knobs the artifact ignores
// project identically, so result caches can serve them from one entry
// (the runs would be byte-identical anyway).
func (a *Artifact) Project(cfg Config) Config {
	if a.Uses&UsesIters == 0 {
		cfg.Iters = 0
	}
	if a.Uses&UsesGoodputPayloads == 0 {
		cfg.GoodputPayloads = nil
	}
	if a.Uses&UsesLatencyPlacements == 0 {
		cfg.LatencyPlacements = nil
	}
	return cfg.Canonical()
}

// Table runs the artifact and renders it in one step.
func (a *Artifact) Table(cfg Config) (*report.Table, error) {
	res, err := a.Run(cfg)
	if err != nil {
		return nil, err
	}
	return a.Render(res), nil
}

// Spec is a typed registration. Render is required; Description,
// Uses and Metrics are optional (zero Uses means Run ignores Config
// entirely).
type Spec[R any] struct {
	Name        string
	Description string
	Uses        Knobs
	Run         func(Config) (R, error)
	Render      func(R) *report.Table
	Metrics     func(R) map[string]float64
}

var registry []*Artifact

// Register files a typed artifact spec in the registry. Registration
// order is the canonical listing order. Duplicate or empty names and
// missing hooks are programming errors and panic.
func Register[R any](s Spec[R]) {
	if s.Run == nil || s.Render == nil {
		panic(fmt.Sprintf("harness: artifact %q incompletely specified", s.Name))
	}
	a := &Artifact{
		Name:        s.Name,
		Description: s.Description,
		Uses:        s.Uses,
		Run:         func(cfg Config) (any, error) { return s.Run(cfg) },
		Render:      func(res any) *report.Table { return s.Render(res.(R)) },
	}
	if s.Metrics != nil {
		a.Metrics = func(res any) map[string]float64 { return s.Metrics(res.(R)) }
	}
	RegisterArtifact(a)
}

// RegisterArtifact files an already-assembled artifact, for layers
// (like the scenario compiler) that build *Artifact values directly.
// Same invariants and panics as Register.
func RegisterArtifact(a *Artifact) {
	if a.Name == "" || a.Run == nil || a.Render == nil {
		panic(fmt.Sprintf("harness: artifact %q incompletely specified", a.Name))
	}
	if Lookup(a.Name) != nil {
		panic(fmt.Sprintf("harness: artifact %q registered twice", a.Name))
	}
	registry = append(registry, a)
}

// Artifacts lists every registered artifact in registration order.
// The returned slice is shared; do not mutate it.
func Artifacts() []*Artifact { return registry }

// Lookup returns the artifact registered under name, or nil.
func Lookup(name string) *Artifact {
	for _, a := range registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Names lists the registered artifact names in registration order.
func Names() []string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.Name
	}
	return names
}
