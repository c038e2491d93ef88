package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/sim"
	"swallow/internal/workload"
)

// registry is the researcher's path: one round regenerates every
// registered artifact once, in an order the seed chooses, with the
// defaults a swallow-tables user gets (pooled machines, warm start,
// turbo, sweeps as wide as GOMAXPROCS). An op is one artifact's Run
// and Render. One client, as swallow-tables is; the sweeps inside an
// artifact are what use the second processor.
type registry struct {
	arts   []*harness.Artifact
	cfg    harness.Config
	plans  planner[int]
	golden map[string]string

	runs    map[string][]time.Duration
	renders []time.Duration
	// headline holds each artifact's Metrics from its latest run; they
	// are deterministic, so any run's will do.
	headline map[string]map[string]float64
}

func newRegistry(seed int64) *registry {
	w := &registry{
		arts:     harness.Artifacts(),
		cfg:      harness.DefaultConfig(),
		golden:   goldenTables(),
		runs:     make(map[string][]time.Duration),
		headline: make(map[string]map[string]float64),
	}
	w.plans = planner[int]{seed: seed, gen: func(_ int, rng *rand.Rand) []int { return rng.Perm(len(w.arts)) }}
	return w
}

func (w *registry) clients() int  { return 1 }
func (w *registry) roundOps() int { return len(w.arts) }
func (w *registry) teardown()     {}

// setup is one untimed pass: it builds every pooled machine shape and
// takes their pristine snapshots, which is what a first swallow-tables
// run pays for.
func (w *registry) setup() error {
	for i := range w.arts {
		if s := w.do(opCtx{op: i}); !s.ok {
			return fmt.Errorf("artifact %s failed or differs from golden/tables.json", w.arts[w.plans.get(0)[i]].Name)
		}
	}
	w.runs = make(map[string][]time.Duration)
	w.renders = nil
	return nil
}

func (w *registry) do(c opCtx) sample {
	per := len(w.arts)
	a := w.arts[w.plans.get(c.op / per)[c.op%per]]

	c.tr.begin("harness.run/"+a.Name, c.op)
	start := time.Now()
	res, err := a.Run(w.cfg)
	ran := time.Since(start)
	c.tr.end()
	if err != nil {
		return sample{}
	}

	c.tr.begin("report.render", c.op)
	start = time.Now()
	text := a.Render(res).String()
	rendered := time.Since(start)
	c.tr.end()

	w.runs[a.Name] = append(w.runs[a.Name], ran)
	w.renders = append(w.renders, rendered)
	if a.Metrics != nil {
		w.headline[a.Name] = a.Metrics(res)
	}
	sum := sha256.Sum256([]byte(text))
	return sample{ok: hex.EncodeToString(sum[:]) == w.golden[a.Name]}
}

// tableHashes renders every artifact once and hashes it.
func tableHashes() (map[string]string, error) {
	out := make(map[string]string)
	for _, a := range harness.Artifacts() {
		t, err := a.Table(harness.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		sum := sha256.Sum256([]byte(t.String()))
		out[a.Name] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// paperRef is one published value a simulated headline quantity is
// held against.
type paperRef struct {
	Artifact string  `json:"artifact"`
	Metric   string  `json:"metric"`
	Paper    float64 `json:"paper"`
	Source   string  `json:"source"`
}

func (w *registry) finish(r *run) {
	if len(w.golden) != len(w.arts) {
		r.wrong("golden/tables.json names %d artifacts, the registry %d", len(w.golden), len(w.arts))
	}
	var refs []paperRef
	readCommitted("paper_refs.json", &refs)
	sum, worst := 0.0, 0.0
	for _, ref := range refs {
		got, ok := w.headline[ref.Artifact][ref.Metric]
		if !ok {
			r.wrong("paper_refs.json: artifact %s has no metric %q", ref.Artifact, ref.Metric)
			continue
		}
		e := 100 * math.Abs(got-ref.Paper) / ref.Paper
		sum += e
		worst = math.Max(worst, e)
	}
	r.set("paper_err_mean_pct", sum/float64(len(refs)))
	r.set("paper_err_max_pct", worst)

	for name, ds := range w.runs {
		r.set("harness.run_ms."+name, medianDur(ds, time.Millisecond))
	}
	r.set("report.render_us_p50", medianDur(w.renders, time.Microsecond))
	// A pass is one round: from its first op's start to its last op's end.
	var passes []float64
	for lo := 0; lo+len(w.arts) <= len(r.samples); lo += len(w.arts) {
		passes = append(passes, float64(r.samples[lo+len(w.arts)-1].end-r.samples[lo].start)/1e6)
	}
	r.set("harness.pass_ms_p50", median(passes))
	r.notes = append(r.notes, fmt.Sprintf("full registry regenerates in %.0f ms (median pass)", median(passes)))
	if !r.trace {
		return
	}
	probePower(r.set)
	probeCore(r.set, 1, 1)
}

// probePower times the measurement chain the adc and fig2 artifacts
// lean on: one multi-channel sample, and what a running trace adds to
// a simulation per sample it takes.
func probePower(set setter) {
	m := core.MustNew(1, 1, core.Options{})
	_ = m.LoadAll(workload.HeavyLoad(4, 1<<20))
	m.RunFor(20 * sim.Microsecond)
	board := m.Board(0)
	var samples []time.Duration
	for i := 0; i < 50; i++ {
		m.RunFor(sim.Microsecond)
		samples = append(samples, timeN(1, func() { board.SampleAll() })...)
	}
	set("power.sample_us_p50", medianDur(samples, time.Microsecond))

	const n, window = 200, 200 * sim.Microsecond
	var extra []float64
	for i := 0; i < 5; i++ {
		plain := timeN(1, func() { m.RunFor(window) })[0]
		if _, err := board.StartTrace(1e6, n); err != nil {
			return
		}
		traced := timeN(1, func() { m.RunFor(window) })[0]
		extra = append(extra, float64(traced-plain)/float64(time.Microsecond)/n)
	}
	set("power.trace_us_per_sample", median(extra))
}
