// Package harness is the experiment registry that cmd/swallow-tables,
// the service, bench/ and the golden determinism tests all drive. Each
// table or figure of the paper registers exactly once — a name, a Run
// that regenerates it from simulation, and a Render that formats the
// result — and every driver becomes a loop over Artifacts() instead of
// a hand-maintained list.
//
// Runs take a Config (the workload-length knob) and return a typed
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
// or scenario spec (e.g. an iters count above MaxIters, or a workload
// that cannot finish within its horizon) rather than a simulation
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

// Config carries the run-size knob shared by every artifact. A sweep's
// grid is no part of it: that is the artifact's own spec. Config is
// JSON-serialisable so network drivers (internal/service) can accept
// it from API callers.
type Config struct {
	// Iters is the per-thread workload length for the settling
	// experiments (power and throughput measurements).
	Iters int `json:"iters"`
	// Env is how the run executes (core.Env); nil is production. It is
	// no part of what the run computes, so it is invisible to JSON and
	// with it to every cache key, store key and scenario hash.
	Env *core.Env `json:"-"`
}

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
	// UsesIters declares that Run reads Config.Iters; see Project.
	UsesIters bool
	// Run regenerates the artifact from simulation.
	Run func(Config) (any, error)
	// Render formats a Run result.
	Render func(any) *report.Table
	// Metrics extracts named headline quantities from a Run result for
	// benchmark reporting. May be nil.
	Metrics func(any) map[string]float64
}

// Project reduces cfg to what this artifact's Run reads: configs
// differing only in an Iters the artifact ignores project identically,
// so result caches can serve them from one entry (the runs would be
// byte-identical anyway).
func (a *Artifact) Project(cfg Config) Config {
	if !a.UsesIters {
		cfg.Iters = 0
	}
	return cfg
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
// UsesIters and Metrics are optional (UsesIters false means Run
// ignores Config entirely).
type Spec[R any] struct {
	Name        string
	Description string
	UsesIters   bool
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
		UsesIters:   s.UsesIters,
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
