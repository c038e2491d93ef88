package scenario

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/harness/sweep"
	"swallow/internal/noc"
	"swallow/internal/nos"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// Result is a compiled scenario's run output: one Point per sweep
// point, in cross-product order (first axis slowest), and the summary
// rows the measure derives from them, such as Eq. 1's fit.
type Result struct {
	Points []Point
	Extra  []Point
}

// Point is one row of a Result: a label (a sweep point's axis value
// labels joined with " / ") and named columns, the measure's first and
// then one per int or float axis, named by its param.
type Point struct {
	Label string
	Cols  []Col
}

// Col is one named value of a point, in its unit, with the format its
// table cell reads in and, for a measure's column that the table
// shows, its head.
type Col struct {
	Name, Unit string
	Value      float64
	format     func(float64) string
	head       string
}

// Cell formats the value as its table cell.
func (c Col) Cell() string { return c.format(c.Value) }

// Col returns the point's column of that name.
func (p Point) Col(name string) (Col, bool) {
	for _, c := range p.Cols {
		if c.Name == name {
			return c, true
		}
	}
	return Col{}, false
}

// Value returns the named column's value, 0 when the point has none.
func (p Point) Value(name string) float64 {
	c, _ := p.Col(name)
	return c.Value
}

// Compiled is a lowered Spec: the canonical spec, its content hash,
// and the harness.Artifact whose Run sweeps the points through
// sweep.MapWarm under the run's core.Env.
type Compiled struct {
	Spec     Spec
	Hash     string
	Artifact *harness.Artifact
	ms       *measure
}

// Compile validates a spec and lowers it. The returned artifact obeys
// the parallel-sweep contract — every point checks out its own
// machine, touches the spec read-only, and returns a value — so runs
// render byte-identically under every core.Env.
func Compile(s Spec) (*Compiled, error) {
	s = s.Canonical()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Spec: s, Hash: s.Hash(), ms: measureTable[s.Measure]}
	c.Artifact = &harness.Artifact{
		Name:        s.Name,
		Description: s.Description,
		UsesIters:   c.ms.iters,
		Run:         func(cfg harness.Config) (any, error) { return c.Run(cfg) },
		Render:      func(res any) *report.Table { return c.Render(res.(*Result)) },
	}
	return c, nil
}

// MustRegister compiles a spec and files its artifact with the
// harness registry; metrics optionally extracts benchmark headline
// quantities from a Result (nil for none). The registry entry IS
// c.Artifact, so the CLI's -scenario path and the registry serve one
// object. Registration failures are programming errors and panic,
// matching harness.Register.
func MustRegister(s Spec, metricsFn func(*Result) map[string]float64) *Compiled {
	c, err := Compile(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: register %q: %v", s.Name, err))
	}
	if metricsFn != nil {
		c.Artifact.Metrics = func(res any) map[string]float64 { return metricsFn(res.(*Result)) }
	}
	harness.RegisterArtifact(c.Artifact)
	return c
}

// Scale returns v at 10^exp: a product for exp >= 0 and a quotient
// below, so a unit change is the same arithmetic as v*1e3 or v/1e6.
func Scale(v float64, exp int) float64 {
	if exp < 0 {
		return v / math.Pow10(-exp)
	}
	return v * math.Pow10(exp)
}

// point is one resolved sweep point: its label, a column per int or
// float axis holding the axis value, and its variant.
type point struct {
	Point
	variant *Variant
}

// axis is the point's value of an int axis, 0 when none applies.
func (p point) axis(param string) int { return int(p.Value(param)) }

// enumerate expands the axes' cross product in declaration order.
func enumerate(axes []Axis) []point {
	points := []point{{}}
	for _, ax := range axes {
		next := make([]point, 0, len(points)*ax.size())
		for _, base := range points {
			for j := 0; j < ax.size(); j++ {
				// Each point appends to a clipped copy of its base's
				// columns, so siblings never share one array.
				p := base
				var lbl string
				switch ax.kind() {
				case "ints":
					v := ax.Ints[j]
					lbl = strconv.Itoa(v)
					p.Cols = append(slices.Clip(p.Cols), Col{Name: ax.Param, Value: float64(v), format: whole})
				case "floats":
					v := ax.Floats[j]
					lbl = strconv.FormatFloat(v, 'g', -1, 64) + " MHz"
					p.Cols = append(slices.Clip(p.Cols), Col{Name: ax.Param, Unit: "MHz", Value: v, format: general})
				case "variants":
					p.variant = &ax.Variants[j]
					lbl = p.variant.Name
				}
				if p.Label == "" {
					p.Label = lbl
				} else {
					p.Label += " / " + lbl
				}
				next = append(next, p)
			}
		}
		points = next
	}
	return points
}

// specFault marks a run failure as the submitter's configuration
// (harness.ErrBadConfig, the service's 400 class): every parameter of
// a compiled scenario is spec-supplied, so a workload that cannot
// complete within its horizon is not a simulator fault.
func specFault(label string, err error) error {
	return fmt.Errorf("%w: scenario: %s: %v", harness.ErrBadConfig, label, err)
}

// freqMHz resolves the point's core clock: the freq_mhz axis value
// when one applies, else the spec's operating point.
func (c *Compiled) freqMHz(p point) float64 {
	if f := p.Value("freq_mhz"); f > 0 {
		return f
	}
	return c.Spec.Operating.CoreMHz
}

// options resolves the machine build options for one point.
func (c *Compiled) options(p point) core.Options {
	nocCfg := noc.OperatingConfig()
	if c.Spec.Operating.Links == "max" {
		nocCfg = noc.MaxRateConfig()
	}
	if n := p.axis("links"); n > 0 {
		nocCfg.InternalLinks = n
	}
	coreCfg := xs1.Config{FreqMHz: c.freqMHz(p), VDD: c.Spec.Operating.VDD}
	return core.Options{Noc: &nocCfg, Core: &coreCfg}
}

// warmState is one sweep worker's cached boot prefix: a checked-out
// machine plus the snapshot taken right after its network boot
// completed, and what the boot cost. Points sharing a boot identity
// restore the snapshot and retune instead of re-simulating the boot;
// the machine stays checked out for the worker's lifetime and returns
// to the pool on close.
type warmState struct {
	key     string
	m       *core.Machine
	release func()
	snap    *core.Snapshot
	stats   nos.BootStats
}

// drop returns the cached machine, if any, to the pool. A nil
// warmState is the cold sweep's and holds none.
func (ws *warmState) drop() {
	if ws != nil && ws.m != nil {
		ws.release()
		*ws = warmState{}
	}
}

// Run sweeps every point, one checked-out machine per point, under
// cfg.Env and collects the measurements in point order. In a boot
// scenario each sweep worker carries a warmState, so it simulates the
// boot prefix once and restores a snapshot per point — unless the Env
// is cold, when every point boots for itself; results are
// byte-identical either way.
func (c *Compiled) Run(cfg harness.Config) (*Result, error) {
	if c.Artifact.UsesIters && (cfg.Iters < 0 || cfg.Iters > harness.MaxIters) {
		return nil, badf("iters %d outside 0-%d", cfg.Iters, harness.MaxIters)
	}
	env := cfg.Env
	points, err := sweep.MapWarm(env.SweepWidth(), enumerate(c.Spec.Sweep),
		func() (*warmState, error) {
			if c.Spec.Workload.Boot && env.WarmStart() {
				return &warmState{}, nil
			}
			return nil, nil
		},
		(*warmState).drop,
		func(_ int, p point, ws *warmState) (Point, error) {
			return c.runPoint(&reading{c: c, env: env, p: p, iters: cfg.Iters}, ws)
		})
	if err != nil {
		return nil, err
	}
	res := &Result{Points: points}
	if c.ms.summary != nil {
		res.Extra = c.ms.summary(c.Spec, points)
	}
	return res, nil
}

// clockSweep reports whether the spec sweeps freq_mhz and nothing else.
func (s Spec) clockSweep() bool { return len(s.Sweep) == 1 && s.Sweep[0].Param == "freq_mhz" }

// A reading is what a structure runner hands its measure: the point,
// where it ran and, for the structures that run before the measure
// reads, the machine they ran on, still checked out.
type reading struct {
	c    *Compiled
	env  *core.Env
	p    point
	opts core.Options
	m    *core.Machine
	// traffic: the flows driven and when they started
	fs []*workload.Flow
	t0 sim.Time
	// ping: the endpoints; program and load: the placement
	nodes []topo.NodeID
	// ping and group rounds; pipeline and farm items (0 for the
	// others); load threads per core and iters per thread
	rounds, items, threads, iters int
}

// runPoint resolves the point's workload (base plus variant
// overrides), hands it to the structure's runner and labels the
// measure's values as the point's columns.
func (c *Compiled) runPoint(r *reading, ws *warmState) (Point, error) {
	w, p := c.Spec.Workload, r.p
	flows := w.Flows
	a, b := w.A, w.B
	r.items, r.rounds = w.Items, w.Rounds
	if n := p.axis("items"); n > 0 {
		r.items = n
	}
	if n := p.axis("rounds"); n > 0 {
		r.rounds = n
	}
	var nodes []NodeRef
	if v := p.variant; v != nil {
		if len(v.Flows) > 0 {
			flows = v.Flows
		}
		if v.A != nil {
			a = v.A
		}
		if v.B != nil {
			b = v.B
		}
		if len(v.Nodes) > 0 {
			nodes = v.Nodes
		}
	}
	r.opts = c.options(p)
	var vals []float64
	var err error
	switch w.Structure {
	case "traffic":
		vals, err = c.runTraffic(r, flows)
	case "ping":
		if a == nil || b == nil {
			return Point{}, badf("%s: ping point has no endpoints", p.Label)
		}
		r.nodes = []topo.NodeID{a.ID(), b.ID()}
		vals, err = c.runPing(r)
	default:
		if r.nodes, err = c.programNodes(nodes); err != nil {
			return Point{}, err
		}
		if w.Structure == "load" {
			r.threads = *w.Threads
			if n := p.axis("threads"); n > 0 {
				r.threads = n
			}
			vals, err = c.ms.run(r)
		} else {
			vals, err = c.runProgram(r, ws)
		}
	}
	if err != nil {
		return Point{}, err
	}
	pt := Point{Label: p.Label, Cols: make([]Col, len(vals), len(vals)+len(p.Cols))}
	for i, v := range vals {
		pt.Cols[i] = c.ms.cols[i]
		pt.Cols[i].Value = v
	}
	for _, a := range p.Cols {
		if _, dup := pt.Col(a.Name); !dup {
			pt.Cols = append(pt.Cols, a)
		}
	}
	return pt, nil
}

// programNodes resolves a point's program-structure or load placement;
// a load with none runs on every core.
func (c *Compiled) programNodes(variantNodes []NodeRef) ([]topo.NodeID, error) {
	if len(variantNodes) > 0 {
		return ids(variantNodes), nil
	}
	sys := topo.MustSystem(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY)
	nodes, err := c.Spec.placementNodes(sys)
	if err != nil {
		return nil, err
	}
	if nodes == nil && c.Spec.Workload.Structure == "load" {
		return sys.Nodes(), nil
	}
	if nodes == nil {
		return nil, badf("workload.placement: %s point has no placement", c.Spec.Workload.Structure)
	}
	return nodes, nil
}

// runTraffic drives the point's flows on a machine of its own, or for a
// measure that takes none hands it the machine idle, and reads the
// measure. A flowless point of a measure whose flows are optional needs
// no machine: the ec measure's issue-limited regime has no network to
// saturate.
func (c *Compiled) runTraffic(r *reading, flows []FlowSpec) ([]float64, error) {
	if len(flows) == 0 && c.ms.flows == optionalFlows {
		return c.ms.run(r)
	}
	m, release, err := r.env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, r.opts)
	if err != nil {
		return nil, err
	}
	defer release()
	r.m = m
	r.fs = make([]*workload.Flow, len(flows))
	for i, f := range flows {
		tokens := f.Tokens
		if f.TokensPerUnit > 0 {
			tokens = f.TokensPerUnit * r.p.axis("payload")
		}
		packet := f.PacketTokens
		if f.PacketFromAxis {
			packet = r.p.axis("payload")
		}
		r.fs[i] = &workload.Flow{
			Src:          m.Net.Switch(f.Src.ID()).ChanEnd(uint8(f.SrcEnd)),
			Dst:          m.Net.Switch(f.Dst.ID()).ChanEnd(uint8(f.DstEnd)),
			Tokens:       tokens,
			PacketTokens: packet,
		}
	}
	r.t0 = m.K.Now()
	if c.ms.flows != noFlows {
		if err := workload.RunFlows(m.K, r.fs, sim.Second); err != nil {
			return nil, specFault(r.p.Label, err)
		}
	}
	return c.ms.run(r)
}

// runPing runs one placement of the word-latency probe: a
// thread-to-thread ping-pong when both endpoints name the same core, a
// cross-network ping-pong otherwise. Round trips land in the debug
// trace of the first endpoint for the measure to read.
func (c *Compiled) runPing(r *reading) ([]float64, error) {
	m, release, err := r.env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, r.opts)
	if err != nil {
		return nil, err
	}
	defer release()
	a, b := r.nodes[0], r.nodes[1]
	if a == b {
		// The extra round mirrors the hand-written probe: rounds+1 trips
		// so that discarding the opening round still averages `rounds`.
		prog := workload.LocalPingPong(
			noc.MakeChanEndID(uint16(a), 0),
			noc.MakeChanEndID(uint16(a), 1), r.rounds+1)
		if err := m.Load(a, prog); err != nil {
			return nil, err
		}
	} else {
		if err := m.Load(b, workload.PingRx(noc.MakeChanEndID(uint16(a), 0), r.rounds)); err != nil {
			return nil, err
		}
		if err := m.Load(a, workload.PingTx(noc.MakeChanEndID(uint16(b), 0), r.rounds)); err != nil {
			return nil, err
		}
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		return nil, specFault(r.p.Label, err)
	}
	r.m = m
	return c.ms.run(r)
}

// progAt is one placed task image.
type progAt struct {
	node topo.NodeID
	prog *xs1.Program
}

// programsFor builds a program structure's task images in load order —
// receivers before senders, so loading or network-booting in list
// order never wedges on a not-yet-resident peer — plus the
// verification closure the finished run must pass (a wrong answer
// must fail the run, not get billed).
func (c *Compiled) programsFor(p point, nodes []topo.NodeID, items, rounds int) ([]progAt, func(m *core.Machine) error, error) {
	chan0 := func(n topo.NodeID) noc.ChanEndID { return noc.MakeChanEndID(uint16(n), 0) }
	checkTrace := func(m *core.Machine, n topo.NodeID, want uint32, what string) error {
		trace := m.Core(n).DebugTrace
		if len(trace) != 1 || trace[0] != want {
			return fmt.Errorf("%s: %s %v = %v, want [%d]", p.Label, what, n, trace, want)
		}
		return nil
	}
	switch c.Spec.Workload.Structure {
	case "pipeline":
		last := len(nodes) - 1
		progs := []progAt{{nodes[last], workload.PipelineSink(items)}}
		for i := last - 1; i >= 1; i-- {
			progs = append(progs, progAt{nodes[i], workload.PipelineStage(chan0(nodes[i+1]), items, 1)})
		}
		progs = append(progs, progAt{nodes[0], workload.PipelineSource(chan0(nodes[1]), items)})
		stages := len(nodes) - 2
		want := uint32(items*(items-1)/2 + stages*items)
		return progs, func(m *core.Machine) error {
			return checkTrace(m, nodes[last], want, "sink sum")
		}, nil
	case "ring":
		// Relays first, injector last: the injector transmits as soon as
		// it runs.
		var progs []progAt
		for i := len(nodes) - 1; i >= 1; i-- {
			progs = append(progs, progAt{nodes[i], workload.RingRelay(chan0(nodes[(i+1)%len(nodes)]))})
		}
		progs = append(progs, progAt{nodes[0], workload.RingInjector(chan0(nodes[1%len(nodes)]))})
		return progs, func(m *core.Machine) error {
			return checkTrace(m, nodes[0], uint32(len(nodes)-1), "ring token")
		}, nil
	case "farm":
		server, clients := nodes[0], nodes[1:]
		progs := []progAt{{server, workload.ServerProgram(items * len(clients))}}
		for _, nd := range clients {
			progs = append(progs, progAt{nd, workload.ClientProgram(chan0(server), items)})
		}
		return progs, func(m *core.Machine) error {
			for _, nd := range clients {
				if err := checkTrace(m, nd, uint32(items), "client replies"); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case "group":
		root, members := nodes[0], nodes[1:]
		progs := []progAt{{root, workload.BarrierRoot(len(members), rounds)}}
		for _, nd := range members {
			progs = append(progs, progAt{nd, workload.BarrierMember(chan0(root), rounds)})
		}
		return progs, func(m *core.Machine) error {
			for _, nd := range members {
				if err := checkTrace(m, nd, uint32(rounds), "member releases"); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	return nil, nil, badf("%s: structure %q has no programs", p.Label, c.Spec.Workload.Structure)
}

// bridgeNode is where boot images enter the machine: the Ethernet
// bridge's attachment on the grid's South edge.
func (c *Compiled) bridgeNode() topo.NodeID {
	return topo.MakeNodeID(0, c.Spec.Grid.SlicesY*topo.PackagesPerSliceY-1, topo.LayerV)
}

// bootedMachine returns a machine at p's operating point whose task
// images were network-booted, and what the boot cost. With a warm state
// whose cached boot identity (key) matches, the post-boot snapshot is
// restored in place of re-simulating the boot; on a miss the boot runs
// cold and (when ws is non-nil) the machine, a fresh snapshot and the
// cost are cached.
func (c *Compiled) bootedMachine(env *core.Env, p point, key string, progs []progAt, ws *warmState) (*core.Machine, nos.BootStats, func(), error) {
	if ws != nil && ws.m != nil && ws.key == key {
		ws.m.Restore(ws.snap)
		return ws.m, ws.stats, func() {}, nil
	}
	m, release, err := env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, c.options(p))
	if err != nil {
		return nil, nos.BootStats{}, nil, err
	}
	br, err := m.Bridge(c.bridgeNode())
	if err != nil {
		release()
		return nil, nos.BootStats{}, nil, err
	}
	var job nos.Job
	for i, pa := range progs {
		job.Add(fmt.Sprintf("task%d", i), pa.node, pa.prog)
	}
	st, err := job.BootOverNetwork(m, br, sim.Second)
	if err != nil {
		release()
		return nil, st, nil, specFault(p.Label, err)
	}
	if ws == nil {
		return m, st, release, nil
	}
	ws.drop()
	*ws = warmState{key: key, m: m, release: release, snap: m.Snapshot(), stats: st}
	return m, st, func() {}, nil
}

// runProgram places one of the assembled program structures — host
// debug load, or nOS network boot for boot workloads — runs it to
// completion and verifies its result before the measure bills it.
func (c *Compiled) runProgram(r *reading, ws *warmState) ([]float64, error) {
	p, items := r.p, r.items
	if st := c.Spec.Workload.Structure; st != "pipeline" && st != "farm" {
		r.items = 0
	}
	progs, verify, err := c.programsFor(p, r.nodes, items, r.rounds)
	if err != nil {
		return nil, err
	}
	var m *core.Machine
	var release func()
	if c.Spec.Workload.Boot {
		// Boot at the base operating point, keyed by everything the
		// post-boot state depends on but that: structural links plus the
		// values the task images derive from. The point's sweep values
		// apply from here (DFS after a common boot).
		base := p
		base.Cols = slices.DeleteFunc(slices.Clone(p.Cols), func(c Col) bool { return c.Name == "freq_mhz" })
		key := fmt.Sprintf("links=%d items=%d rounds=%d nodes=%v", p.axis("links"), items, r.rounds, r.nodes)
		m, _, release, err = c.bootedMachine(r.env, base, key, progs, ws)
		if err != nil {
			return nil, err
		}
		defer release()
		if err := m.Retune(r.opts.OperatingPoint()); err != nil {
			return nil, err
		}
	} else {
		m, release, err = r.env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, r.opts)
		if err != nil {
			return nil, err
		}
		defer release()
		for _, pa := range progs {
			if err := m.Load(pa.node, pa.prog); err != nil {
				return nil, err
			}
		}
	}
	if err := m.Run(2 * sim.Second); err != nil {
		return nil, specFault(p.Label, err)
	}
	if err := verify(m); err != nil {
		return nil, err
	}
	r.m = m
	return c.ms.run(r)
}

// loaded checks out a machine at opts with prog on every node.
func (c *Compiled) loaded(env *core.Env, opts core.Options, nodes []topo.NodeID, prog *xs1.Program) (*core.Machine, func(), error) {
	m, release, err := env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range nodes {
		if err := m.Load(n, prog); err != nil {
			release()
			return nil, nil, err
		}
	}
	return m, release, nil
}
