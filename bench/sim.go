package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// simOp is the input of one simulation op.
type simOp struct {
	// threads is the HeavyLoad thread count (sim-compute).
	threads int
	// pairs are the transmitter and receiver nodes of each stream
	// (sim-comm).
	pairs [][2]topo.NodeID
}

// placed is one program and the core it goes to; all means every core.
type placed struct {
	node topo.NodeID
	all  bool
	prog *xs1.Program
}

// simStats is what one op did, read from the simulator's own counters.
type simStats struct {
	instrs  uint64
	events  uint64
	endPS   int64
	coreJ   float64
	linkJ   float64
	tokens  [energy.NumLinkClasses]uint64
	batches uint64
	batched uint64
	hits    uint64
	lookups uint64
	runNs   int64
}

// digest is the op's simulated statistics as one line: what a change
// meant only to speed the simulator up must leave identical.
func (s simStats) digest() string {
	return fmt.Sprintf("instrs=%d events=%d end_ps=%d core_j=%016x link_j=%016x tokens=%v",
		s.instrs, s.events, s.endPS, math.Float64bits(s.coreJ), math.Float64bits(s.linkJ), s.tokens)
}

func (s simStats) totalTokens() uint64 {
	var n uint64
	for _, t := range s.tokens {
		n += t
	}
	return n
}

// add accumulates o into s; the end time is not a sum and is left.
func (s *simStats) add(o simStats) {
	s.instrs += o.instrs
	s.events += o.events
	s.coreJ += o.coreJ
	s.linkJ += o.linkJ
	for i := range s.tokens {
		s.tokens[i] += o.tokens[i]
	}
	s.batches += o.batches
	s.batched += o.batched
	s.hits += o.hits
	s.lookups += o.lookups
	s.runNs += o.runNs
}

// simWorkload drives a machine the benchmark owns: every op rewinds
// it, builds and loads programs, runs them and reads the statistics.
// One client, because one machine runs one simulation at a time.
type simWorkload struct {
	name   string
	sx, sy int // machine shape, in slices
	per    int
	// build assembles op's programs.
	build func(op simOp) []placed
	// run advances the loaded machine.
	run func(m *core.Machine) error
	// warmup is the op set-up runs once; the same on every seed, so
	// that set-up costs the same.
	warmup simOp

	m       *core.Machine
	release func()
	// plans draws each round's ops: the same mix every round, ordered
	// and parameterised by the seed.
	plans planner[simOp]

	all      simStats // every op of the timed phase
	first    simStats // round 0 alone: the counts that repeat exactly
	digests  []string // round 0's digests, in op order
	firstErr error    // the first op that failed, if any
}

func (w *simWorkload) clients() int  { return 1 }
func (w *simWorkload) roundOps() int { return w.per }

func (w *simWorkload) setup() error {
	m, release, err := core.Checkout(w.sx, w.sy, core.Options{})
	if err != nil {
		return err
	}
	w.m, w.release = m, release
	// One untimed op fills the decode cache and sizes every buffer, so
	// the timed phase starts on a warm machine.
	_, err = w.runOp(w.warmup, nil, -1)
	return err
}

func (w *simWorkload) teardown() {
	if w.release != nil {
		w.release()
		w.m, w.release = nil, nil
	}
}

// runOp is one op from rewind to statistics.
func (w *simWorkload) runOp(op simOp, tr *tracer, id int) (simStats, error) {
	m := w.m
	tr.begin("core.reset", id)
	m.Reset()
	tr.end()

	tr.begin("workload.build", id)
	progs := w.build(op)
	tr.end()

	tr.begin("core.load", id)
	err := w.load(progs)
	tr.end()
	if err != nil {
		return simStats{}, err
	}

	before := xs1.ReadTurboStats()
	tr.begin("core.run", id)
	start := time.Now()
	err = w.run(m)
	runNs := time.Since(start).Nanoseconds()
	tr.end()
	if err != nil {
		return simStats{}, err
	}
	for _, c := range m.Cores() {
		if err := c.Trapped(); err != nil {
			return simStats{}, err
		}
	}
	after := xs1.ReadTurboStats()

	tr.begin("power.report", id)
	rep := m.Report()
	tr.end()

	st := simStats{
		instrs:  m.TotalInstrCount(),
		events:  m.K.Fired(),
		endPS:   int64(m.K.Now()),
		coreJ:   rep.ComputationJ + rep.BackgroundJ,
		linkJ:   rep.LinkJ,
		batches: after.Batches - before.Batches,
		batched: after.BatchedInstrs - before.BatchedInstrs,
		hits:    after.DecodeHits - before.DecodeHits,
		lookups: (after.DecodeHits + after.DecodeMisses + after.DecodeStale) -
			(before.DecodeHits + before.DecodeMisses + before.DecodeStale),
		runNs: runNs,
	}
	for class, ls := range m.Net.StatsByClass() {
		st.tokens[class] = ls.Tokens
	}
	return st, nil
}

// load places the programs on the machine.
func (w *simWorkload) load(progs []placed) error {
	for _, p := range progs {
		var err error
		if p.all {
			err = w.m.LoadAll(p.prog)
		} else {
			err = w.m.Load(p.node, p.prog)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorkload) do(c opCtx) sample {
	round, pos := c.op/w.per, c.op%w.per
	st, err := w.runOp(w.plans.get(round)[pos], c.tr, c.op)
	if err != nil {
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("op %d: %w", c.op, err)
		}
		return sample{}
	}
	w.all.add(st)
	if round == 0 {
		w.first.add(st)
		w.digests = append(w.digests, st.digest())
	}
	return sample{ok: true}
}

func (w *simWorkload) finish(r *run) {
	if w.firstErr != nil {
		r.notes = append(r.notes, "FAILED: "+w.firstErr.Error())
	}
	if len(w.digests) == 0 {
		return // not one op of the first round succeeded
	}
	// Reset must equal rebuild: the first op, run again on a machine
	// that has since run every other op, reproduces its statistics.
	r.attempted++
	if st, err := w.runOp(w.plans.get(0)[0], nil, -1); err != nil {
		r.fail("%s: re-run of op 0: %v", w.name, err)
	} else if got := st.digest(); got != w.digests[0] {
		r.fail("%s: op 0 re-run after %d ops differs:\n  first %s\n  again %s", w.name, len(r.samples), w.digests[0], got)
	}
	checkGolden(r, goldenSim(w.name), w.digests)

	ops := float64(len(r.samples))
	r.set("sim.events_fired", float64(w.first.events))
	r.set("xs1.instrs", float64(w.first.instrs))
	r.set("noc.tokens", float64(w.first.totalTokens()))
	r.set("noc.link_energy_uj", w.first.linkJ*1e6)
	r.set("sim_minstr_per_s", float64(w.all.instrs)/1e6/(float64(w.all.runNs)/1e9))
	r.set("sim.host_ns_per_event", float64(w.all.runNs)/float64(w.all.events))
	r.set("xs1.host_ns_per_instr", float64(w.all.runNs)/float64(w.all.instrs))
	if t := w.all.totalTokens(); t > 0 {
		r.set("noc.host_ns_per_token", float64(w.all.runNs)/float64(t))
	}
	if w.all.batches > 0 {
		r.set("xs1.batch_len", float64(w.all.batched)/float64(w.all.batches))
	}
	if w.all.lookups > 0 {
		r.set("xs1.decode_hit_ratio", float64(w.all.hits)/float64(w.all.lookups))
	}
	r.notes = append(r.notes, fmt.Sprintf("per op: %.0f instructions, %.0f kernel events, %.0f tokens",
		float64(w.all.instrs)/ops, float64(w.all.events)/ops, float64(w.all.totalTokens())/ops))
	if !r.trace {
		return
	}
	probeTimer(r.set)
	probeCore(r.set, w.sx, w.sy)
	op := w.plans.get(0)[0]
	r.set("workload.build_us_p50", medianDur(timeN(20, func() { w.build(op) }), time.Microsecond))
	probeRunAllocs(r.set, w, op)
	probeRecorder(r.set, w, op)
}

// computeMix is one round of sim-compute, by HeavyLoad thread count.
// One and two threads leave issue slots empty, four and eight fill
// them, so the median op of a round is a four-thread op and its 90th
// percentile an eight-thread op, each well inside its class.
var computeMix = []int{1, 1, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8}

// computeIters outlasts the simulated interval at any thread count.
const computeIters = 1 << 20

// computeSpan is the simulated time one sim-compute op covers.
const computeSpan = 200 * sim.Microsecond

// newSimCompute is the workload in which the XS1 issue loop does
// almost all the work: sixteen cores run the heavy compute mix and the
// network stays idle.
func newSimCompute(seed int64) *simWorkload {
	return &simWorkload{
		name: "sim-compute", sx: 1, sy: 1, per: len(computeMix),
		plans: planner[simOp]{seed: seed, gen: func(_ int, rng *rand.Rand) []simOp {
			ops := make([]simOp, len(computeMix))
			for i, j := range rng.Perm(len(computeMix)) {
				ops[i] = simOp{threads: computeMix[j]}
			}
			return ops
		}},
		build: func(op simOp) []placed {
			return []placed{{all: true, prog: workload.HeavyLoad(op.threads, computeIters)}}
		},
		run:    func(m *core.Machine) error { m.RunFor(computeSpan); return nil },
		warmup: simOp{threads: 4},
	}
}

// One sim-comm op streams commWords words over each of commLocal
// pairs inside a package, commBoard pairs between packages of one
// board and commCross pairs between boards.
const (
	commOps     = 16
	commWords   = 400
	commLocal   = 4
	commBoard   = 6
	commCross   = 6
	commHorizon = 20 * sim.Millisecond
)

// newSimComm uses the same machine code the other way round: few
// instructions, many kernel events, every turbo batch cut short by a
// communication instruction.
func newSimComm(seed int64) *simWorkload {
	sys := topo.MustSystem(2, 2)
	return &simWorkload{
		name: "sim-comm", sx: 2, sy: 2, per: commOps,
		plans: planner[simOp]{seed: seed, gen: func(_ int, rng *rand.Rand) []simOp {
			ops := make([]simOp, commOps)
			for i := range ops {
				ops[i] = simOp{pairs: commPairs(sys, rng)}
			}
			return ops
		}},
		build: func(op simOp) []placed {
			out := make([]placed, 0, 2*len(op.pairs))
			for _, p := range op.pairs {
				dest := noc.MakeChanEndID(uint16(p[1]), 0)
				out = append(out,
					placed{node: p[1], prog: workload.StreamRx(commWords)},
					placed{node: p[0], prog: workload.StreamTx(dest, commWords)})
			}
			return out
		},
		// Run returns nil only once every loaded core has halted, so a
		// receiver still waiting for words is an error.
		run:    func(m *core.Machine) error { return m.Run(commHorizon) },
		warmup: simOp{pairs: commPairs(sys, rand.New(rand.NewSource(0)))},
	}
}

// commPairs draws one op's stream endpoints: a fixed number of pairs
// of each distance class on nodes the seed chooses, no node used
// twice. Every stream runs south and east (or stays in its package).
// A stream holds its route open for all its words, and routes that
// turn in all four directions can wait on each other in a ring: with
// unrestricted directions about one op in three thousand never
// finishes (seed 17, op 69). With every hop going south, east or
// across a package no such ring can close.
func commPairs(sys topo.System, rng *rand.Rand) [][2]topo.NodeID {
	nodes := sys.Nodes()
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	used := make(map[topo.NodeID]bool)
	take := func(n int, match func(a, b topo.NodeID) bool) [][2]topo.NodeID {
		var out [][2]topo.NodeID
		for _, a := range nodes {
			if len(out) == n {
				break
			}
			if used[a] {
				continue
			}
			for _, b := range nodes {
				dx, dy := b.X()-a.X(), b.Y()-a.Y()
				if b == a || used[b] || dx*dy < 0 || !match(a, b) {
					continue
				}
				used[a], used[b] = true, true
				if dx < 0 || dy < 0 {
					a, b = b, a
				}
				out = append(out, [2]topo.NodeID{a, b})
				break
			}
		}
		return out
	}
	pairs := take(commLocal, func(a, b topo.NodeID) bool { return a.Package() == b })
	pairs = append(pairs, take(commBoard, func(a, b topo.NodeID) bool {
		return a.Package() != b && sys.SameSlice(a, b)
	})...)
	return append(pairs, take(commCross, func(a, b topo.NodeID) bool { return !sys.SameSlice(a, b) })...)
}
