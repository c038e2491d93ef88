package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swallow/internal/experiments"
)

// runner is one of the benchmark's input sets. Ops come in rounds
// of a fixed mix: every round holds the same number of ops of each
// kind and the seed only chooses their order and parameters, so a
// round's percentiles and throughput are comparable with any other
// round's, on any seed. The timed phase runs whole rounds until the
// requested time has passed and reports the round at the faster
// quartile, which a slow spell of the host cannot move.
type runner interface {
	// clients is how many goroutines issue ops, each waiting for its
	// reply before sending the next (closed loop).
	clients() int
	// roundOps is the number of ops in one round.
	roundOps() int
	// setup builds everything the timed phase needs; teardown releases
	// it, so that setup can be timed more than once.
	setup() error
	teardown()
	// do runs op number c.op (round c.op/roundOps, position
	// c.op%roundOps) and reports what it saw; the engine stamps the
	// times.
	do(c opCtx) sample
	// finish runs after the timed phase: verification that needs the
	// whole run, the layer probes of a traced run, and the workload's
	// own metrics.
	finish(r *run)
}

// planner hands out each round's ops. A round's ops are drawn from a
// generator seeded by (seed, round), so any client can ask for any
// round in any order and get the same answer.
type planner[T any] struct {
	seed   int64
	gen    func(round int, rng *rand.Rand) []T
	mu     sync.Mutex
	rounds map[int][]T
}

func (p *planner[T]) get(round int) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ops, ok := p.rounds[round]; ok {
		return ops
	}
	if p.rounds == nil {
		p.rounds = make(map[int][]T)
	}
	ops := p.gen(round, rand.New(rand.NewSource(p.seed*1_000_003+int64(round))))
	p.rounds[round] = ops
	return ops
}

// opCtx is what an op is told about itself.
type opCtx struct {
	client int
	op     int
	tr     *tracer // nil when the op is not traced
}

// Request classes and cache tiers a sample can carry; only the serve
// workloads use them.
const (
	classScenario = iota
	classCheap
	classExpensive
	classJob
)

const (
	tierNone = iota
	tierHit
	tierDisk
	tierPeer
	tierMiss
	numTiers
)

var tierNames = [numTiers]string{"", "HIT", "HIT-DISK", "HIT-PEER", "MISS"}

// sample is one completed op.
type sample struct {
	op         int
	start, end int64 // ns since the timed phase began
	ok         bool
	traced     bool
	class      uint8
	tier       uint8
	worker     uint8
	key        int32 // index of the op's key in the workload's key table
	renderUs   int64
	queueUs    int64
}

func (s sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

// run is one invocation on one workload.
type run struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	// minRounds is the least number of rounds the timed phase runs
	// whatever the time limit says; a traced run needs one traced and
	// one untraced round.
	minRounds int
	// fixedSetups, when positive, replaces the set-up repeat rule.
	fixedSetups int

	samples   []sample
	tracers   []*tracer
	wall      time.Duration // timed phase
	setups    []float64     // seconds, one per repeat
	attempted int
	failed    int
	// incorrect collects checks that failed outside any single op
	// (golden mismatch, an exact count that moved).
	incorrect []string
	metrics   map[string]float64
	notes     []string
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// fail counts one more failed op and says why.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

// wrong records a failed check that belongs to no single op.
func (r *run) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.incorrect = append(r.incorrect, msg)
	r.notes = append(r.notes, "INCORRECT: "+msg)
}

// Set-up is repeated so that its reported time is a median: at least
// minSetups times, and further while the repeats so far took less
// than setupBudget in total, up to maxSetups.
const (
	minSetups   = 5
	maxSetups   = 9
	setupBudget = 1.5 // seconds
)

// execute runs set-up, the timed phase and finish.
func (r *run) execute(w runner) error {
	r.metrics = make(map[string]float64)
	calib := []float64{calibrate(), calibrate(), calibrate()}

	total := 0.0
	more := func(done int) bool {
		if r.fixedSetups > 0 {
			return done < r.fixedSetups
		}
		return done < maxSetups && (done < minSetups || total < setupBudget)
	}
	for i := 0; more(i); i++ {
		if i > 0 {
			w.teardown()
		}
		// Each repeat starts from the same state: no pooled machines, a
		// collected heap.
		experiments.DrainPool()
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(start).Seconds()
		r.setups = append(r.setups, s)
		total += s
	}
	defer w.teardown()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.timed(w)
	runtime.ReadMemStats(&after)

	r.attempted = len(r.samples)
	for _, s := range r.samples {
		if !s.ok {
			r.failed++
		}
	}
	r.summarise(w)
	r.set("runtime.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(r.samples)))
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("runtime.sys_mb", float64(after.Sys)/(1<<20))

	w.finish(r)

	calib = append(calib, calibrate(), calibrate(), calibrate())
	r.set("runtime.calib_ns", median(calib))
	r.set("failed_ratio", float64(r.failed)/float64(r.attempted))
	return nil
}

// timed runs rounds of ops from the workload's clients until the time
// limit has passed and the round in progress is complete.
func (r *run) timed(w runner) {
	n, per := w.clients(), int64(w.roundOps())
	var next, limit atomic.Int64
	limit.Store(math.MaxInt64)
	perClient := make([][]sample, n)
	r.tracers = make([]*tracer, n)
	start := time.Now()
	if r.trace {
		for i := range r.tracers {
			r.tracers[i] = newTracer(start)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				// The phase ends only at a round boundary, so every
				// round that counts is whole.
				if i%per == 0 && i/per >= int64(r.minRounds) && time.Since(start).Seconds() >= r.seconds {
					limit.CompareAndSwap(math.MaxInt64, i)
				}
				if i >= limit.Load() {
					return
				}
				ctx := opCtx{client: c, op: int(i)}
				// A traced run traces every other round; the untraced
				// rounds between them give the tracing overhead.
				if r.trace && (i/per)%2 == 0 {
					ctx.tr = r.tracers[c]
				}
				t0 := time.Since(start)
				s := w.do(ctx)
				s.op, s.start, s.end = int(i), int64(t0), int64(time.Since(start))
				s.traced = ctx.tr != nil
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(start)
	// A client may have started an op of the round after the last
	// before it saw the limit; those ops ran but do not count.
	for _, ss := range perClient {
		for _, s := range ss {
			if int64(s.op) < limit.Load() {
				r.samples = append(r.samples, s)
			}
		}
	}
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].op < r.samples[j].op })
}

// roundStat is one round's view of the end-to-end metrics.
type roundStat struct {
	traced   bool
	p50, p90 float64 // ms
	opsPerS  float64
}

// rounds splits the samples into rounds. A round's throughput is its
// successful ops over the time its clients spent on it: with every
// client always waiting for a reply, that is clients x ops / the sum of
// the ops' latencies. Unlike a count between two instants it does not
// depend on which round an op in flight at the boundary is booked to.
func (r *run) rounds(per, clients int) []roundStat {
	var out []roundStat
	for lo := 0; lo+per <= len(r.samples); lo += per {
		ss := r.samples[lo : lo+per]
		lat := make([]float64, per)
		busy, ok := 0.0, 0
		for i, s := range ss {
			lat[i] = s.ms()
			busy += lat[i] / 1e3
			if s.ok {
				ok++
			}
		}
		sort.Float64s(lat)
		out = append(out, roundStat{
			traced:  ss[0].traced,
			p50:     rank(lat, 50),
			p90:     rank(lat, 90),
			opsPerS: float64(clients*ok) / busy,
		})
	}
	return out
}

// summarise derives the end-to-end metrics, and on a traced run the
// tracing overhead and the span shares.
func (r *run) summarise(w runner) {
	rs := r.rounds(w.roundOps(), w.clients())
	// Each metric is reported from the round at the faster quartile:
	// whatever else runs on the host only ever slows a round down, so
	// the faster rounds are the ones that repeat from run to run.
	pick := func(traced bool, p float64, f func(roundStat) float64) float64 {
		var vs []float64
		for _, s := range rs {
			if s.traced == traced {
				vs = append(vs, f(s))
			}
		}
		sort.Float64s(vs)
		return rank(vs, p)
	}
	perS := func(s roundStat) float64 { return s.opsPerS }
	r.set("op_ms_p50", pick(false, 25, func(s roundStat) float64 { return s.p50 }))
	r.set("op_ms_p90", pick(false, 25, func(s roundStat) float64 { return s.p90 }))
	r.set("ops_per_s", pick(false, 75, perS))
	r.set("setup_s", median(r.setups))

	lat := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lat[i] = s.ms()
	}
	sort.Float64s(lat)
	// The tail is reported at the highest percentile that still has
	// ten samples beyond it.
	tail := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if float64(len(lat))*(1-p/100) >= 10 {
			tail = p
		}
	}
	r.set("client.op_ms_tail", rank(lat, tail))
	r.set("client.tail_percentile", tail)
	r.set("client.op_samples", float64(len(lat)))
	r.set("client.rounds", float64(len(rs)))
	r.set("client.count", float64(w.clients()))

	if !r.trace {
		return
	}
	// Tracing overhead: what a traced round loses in throughput against
	// the untraced rounds it alternates with.
	if with := pick(true, 75, perS); with > 0 {
		r.set("trace.bench_overhead_pct", 100*(pick(false, 75, perS)/with-1))
	}
	// Span names may carry a /detail suffix (harness.run/fig2); shares
	// are per name without it.
	self := make(map[string]int64)
	var selfTotal int64
	for name, a := range mergeSpans(r.tracers) {
		base, _, _ := strings.Cut(name, "/")
		self[base] += a.selfNs
		selfTotal += a.selfNs
	}
	for _, name := range spanNames {
		if selfTotal > 0 {
			r.set("span.self_pct."+name, 100*float64(self[name])/float64(selfTotal))
		}
	}
}

// calibrate times a fixed integer loop: the host-speed reference that
// tells a slower machine, or a busier one, from a slower program.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 5_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds())
}

var calibSink uint64

// rank is the nearest-rank percentile of an ascending slice.
func rank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of an unsorted slice; 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianDur is the median of a set of durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	return median(vs)
}

// timeN calls fn n times and returns each call's duration.
func timeN(n int, fn func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = time.Since(start)
	}
	return out
}
