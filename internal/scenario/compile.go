package scenario

import (
	"fmt"
	"strconv"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/harness/sweep"
	"swallow/internal/metrics"
	"swallow/internal/noc"
	"swallow/internal/nos"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// instrTimeNS is the single-thread instruction time at the point's
// clock (Eq. 2: f/max(4,1), so 4000/fMHz ns — 8 ns at 500 MHz), the
// unit of the latency table's instruction-equivalent column.
func instrTimeNS(freqMHz float64) float64 { return 4e3 / freqMHz }

// Result is a compiled scenario's run output: one Point per sweep
// point, in cross-product order (first axis slowest).
type Result struct {
	Points []Point
}

// Point is one sweep point's measurements. Only the fields of the
// spec's measure are populated.
type Point struct {
	// Label joins the point's axis value labels with " / ".
	Label string
	// IntValue is the point's last int-axis value (payload, links,
	// items, rounds), for metric extraction.
	IntValue int

	// goodput_fraction
	Payload            int
	Fraction, Analytic float64

	// latency (paper values echo the variant's annotations)
	NS, Instrs, PaperNS, PaperInstrs float64

	// ec
	EBps, CBps, EC, PaperEC float64

	// aggregate_goodput
	GoodputBps float64

	// energy
	Items                  int
	Elapsed                sim.Time
	CoreJ, LinkJ, PerItemJ float64
}

// Compiled is a lowered Spec: the canonical spec, its content hash,
// and the harness.Artifact whose Run sweeps the points through
// sweep.MapWarm under the run's core.Env.
type Compiled struct {
	Spec     Spec
	Hash     string
	Artifact *harness.Artifact
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
	c := &Compiled{Spec: s, Hash: s.Hash()}
	var uses harness.Knobs
	for _, ax := range s.Sweep {
		switch ax.FromConfig {
		case "goodput_payloads":
			uses |= harness.UsesGoodputPayloads
		case "latency_placements":
			uses |= harness.UsesLatencyPlacements
		}
	}
	c.Artifact = &harness.Artifact{
		Name:        s.Name,
		Description: s.Description,
		Uses:        uses,
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

// point is one resolved sweep point: the axis values that apply to it
// and its display label.
type point struct {
	label   string
	payload int
	links   int
	freq    float64
	items   int
	rounds  int
	variant *Variant
	intVal  int
}

// axesFor applies the harness.Config overrides declared by FromConfig
// axes: goodput_payloads replaces an int grid, latency_placements
// filters a variants axis by name in canonical order.
func (c *Compiled) axesFor(cfg harness.Config) ([]Axis, error) {
	axes := append([]Axis(nil), c.Spec.Sweep...)
	for i, ax := range axes {
		switch ax.FromConfig {
		case "goodput_payloads":
			if len(cfg.GoodputPayloads) == 0 {
				continue
			}
			for _, p := range cfg.GoodputPayloads {
				if p < 1 || p > 4096 {
					return nil, badf("%s: payload %d outside 1-4096", ax.Param, p)
				}
			}
			ax.Ints = cfg.GoodputPayloads
		case "latency_placements":
			if len(cfg.LatencyPlacements) == 0 {
				continue
			}
			names := make([]string, len(ax.Variants))
			for j, v := range ax.Variants {
				names[j] = v.Name
			}
			want := make(map[string]bool, len(cfg.LatencyPlacements))
			for _, n := range cfg.LatencyPlacements {
				found := false
				for _, have := range names {
					if have == n {
						found = true
						break
					}
				}
				if !found {
					return nil, badf("unknown %s %q (have %v)", ax.Param, n, names)
				}
				want[n] = true
			}
			kept := make([]Variant, 0, len(want))
			for _, v := range ax.Variants {
				if want[v.Name] {
					kept = append(kept, v)
				}
			}
			ax.Variants = kept
		}
		axes[i] = ax
	}
	// Overrides replace grids wholesale, so the cross product must be
	// re-bounded: Validate only saw the spec's own grids.
	points := 1
	for _, ax := range axes {
		points *= ax.size()
	}
	if points > MaxPoints {
		return nil, badf("sweep: %d points exceed the %d-point service bound", points, MaxPoints)
	}
	return axes, nil
}

// enumerate expands the axes' cross product in declaration order.
func enumerate(axes []Axis) []point {
	points := []point{{}}
	for _, ax := range axes {
		next := make([]point, 0, len(points)*ax.size())
		for _, base := range points {
			for j := 0; j < ax.size(); j++ {
				p := base
				var lbl string
				switch ax.kind() {
				case "ints":
					v := ax.Ints[j]
					lbl = strconv.Itoa(v)
					p.intVal = v
					switch ax.Param {
					case "payload":
						p.payload = v
					case "links":
						p.links = v
					case "items":
						p.items = v
					case "rounds":
						p.rounds = v
					}
				case "floats":
					v := ax.Floats[j]
					lbl = strconv.FormatFloat(v, 'g', -1, 64) + " MHz"
					p.freq = v
				case "variants":
					p.variant = &ax.Variants[j]
					lbl = p.variant.Name
				}
				if p.label == "" {
					p.label = lbl
				} else {
					p.label += " / " + lbl
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
	if p.freq > 0 {
		return p.freq
	}
	return c.Spec.Operating.CoreMHz
}

// options resolves the machine build options for one point.
func (c *Compiled) options(p point) core.Options {
	nocCfg := noc.OperatingConfig()
	if c.Spec.Operating.Links == "max" {
		nocCfg = noc.MaxRateConfig()
	}
	if p.links > 0 {
		nocCfg.InternalLinks = p.links
	}
	coreCfg := xs1.Config{FreqMHz: c.Spec.Operating.CoreMHz, VDD: c.Spec.Operating.VDD}
	if p.freq > 0 {
		coreCfg.FreqMHz = p.freq
	}
	return core.Options{Noc: &nocCfg, Core: &coreCfg}
}

// warmState is one sweep worker's cached boot prefix: a checked-out
// machine plus the snapshot taken right after its network boot
// completed. Points sharing a boot identity restore the snapshot and
// retune instead of re-simulating the boot; the machine stays checked
// out for the worker's lifetime and returns to the pool on close.
type warmState struct {
	key     string
	m       *core.Machine
	release func()
	snap    *core.Snapshot
}

// drop returns the cached machine, if any, to the pool. A nil
// warmState is the cold sweep's and holds none.
func (ws *warmState) drop() {
	if ws != nil && ws.m != nil {
		ws.release()
		ws.key, ws.m, ws.release, ws.snap = "", nil, nil, nil
	}
}

// Run sweeps every point, one checked-out machine per point, under
// cfg.Env and collects the measurements in point order. In a boot
// scenario each sweep worker carries a warmState, so it simulates the
// boot prefix once and restores a snapshot per point — unless the Env
// is cold, when every point boots for itself; results are
// byte-identical either way.
func (c *Compiled) Run(cfg harness.Config) (*Result, error) {
	axes, err := c.axesFor(cfg)
	if err != nil {
		return nil, err
	}
	env := cfg.Env
	points, err := sweep.MapWarm(env.SweepWidth(), enumerate(axes),
		func() (*warmState, error) {
			if c.Spec.Workload.Boot && env.WarmStart() {
				return &warmState{}, nil
			}
			return nil, nil
		},
		(*warmState).drop,
		func(_ int, p point, ws *warmState) (Point, error) {
			return c.runPoint(env, p, ws)
		})
	if err != nil {
		return nil, err
	}
	return &Result{Points: points}, nil
}

// runPoint resolves the point's workload (base plus variant
// overrides) and dispatches on the structure.
func (c *Compiled) runPoint(env *core.Env, p point, ws *warmState) (Point, error) {
	w := c.Spec.Workload
	flows := w.Flows
	a, b := w.A, w.B
	items, rounds := w.Items, w.Rounds
	if p.items > 0 {
		items = p.items
	}
	if p.rounds > 0 {
		rounds = p.rounds
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
	switch w.Structure {
	case "traffic":
		return c.runTraffic(env, p, flows)
	case "ping":
		if a == nil || b == nil {
			return Point{}, badf("%s: ping point has no endpoints", p.label)
		}
		return c.runPing(env, p, *a, *b, rounds)
	default:
		ids, err := c.programNodes(nodes)
		if err != nil {
			return Point{}, err
		}
		return c.runProgram(env, p, ids, items, rounds, ws)
	}
}

// programNodes resolves a point's program-structure placement.
func (c *Compiled) programNodes(variantNodes []NodeRef) ([]topo.NodeID, error) {
	if len(variantNodes) > 0 {
		ids := make([]topo.NodeID, len(variantNodes))
		for i, n := range variantNodes {
			ids[i] = n.ID()
		}
		return ids, nil
	}
	sys := topo.MustSystem(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY)
	ids, err := c.Spec.placementNodes(sys)
	if err != nil {
		return nil, err
	}
	if ids == nil {
		return nil, badf("workload.placement: %s point has no placement", c.Spec.Workload.Structure)
	}
	return ids, nil
}

// runTraffic drives host-level flows and reduces them under the
// traffic measures.
func (c *Compiled) runTraffic(env *core.Env, p point, flows []FlowSpec) (Point, error) {
	pt := Point{Label: p.label, IntValue: p.intVal, Payload: p.payload}
	if c.Spec.Measure == "ec" {
		// E at the point's actual clock, fully threaded (Eq. 2).
		e := metrics.ExecutionBitRate(metrics.IPSCore(c.freqMHz(p)*1e6, 4))
		mult := 1.0
		if p.variant != nil {
			mult = p.variant.EMult
			pt.PaperEC = p.variant.PaperEC
		}
		pt.EBps = mult * e
		if len(flows) == 0 {
			// Issue-limited regime: C = E analytically, no network to
			// saturate.
			pt.CBps = pt.EBps
			pt.EC = metrics.EC(pt.EBps, pt.CBps)
			return pt, nil
		}
	}
	opts := c.options(p)
	m, release, err := env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, opts)
	if err != nil {
		return pt, err
	}
	defer release()
	fs := make([]*workload.Flow, len(flows))
	for i, f := range flows {
		tokens := f.Tokens
		if f.TokensPerUnit > 0 {
			tokens = f.TokensPerUnit * p.payload
		}
		packet := f.PacketTokens
		if f.PacketFromAxis {
			packet = p.payload
		}
		fs[i] = &workload.Flow{
			Src:          m.Net.Switch(f.Src.ID()).ChanEnd(uint8(f.SrcEnd)),
			Dst:          m.Net.Switch(f.Dst.ID()).ChanEnd(uint8(f.DstEnd)),
			Tokens:       tokens,
			PacketTokens: packet,
		}
	}
	if err := workload.RunFlows(m.K, fs, sim.Second); err != nil {
		return pt, specFault(p.label, err)
	}
	agg := workload.AggregateGoodput(fs)
	switch c.Spec.Measure {
	case "goodput_fraction":
		pt.Fraction = agg / opts.Noc.External.BitRate()
		pt.Analytic = float64(p.payload) / float64(p.payload+noc.HeaderTokens+1)
	case "ec":
		pt.CBps = agg
		pt.EC = metrics.EC(pt.EBps, agg)
	default: // aggregate_goodput
		pt.GoodputBps = agg
	}
	return pt, nil
}

// runPing measures one placement of the word-latency probe: a
// thread-to-thread ping-pong when both endpoints name the same core,
// a cross-network ping-pong otherwise. Round trips land in the debug
// trace in 10 ns reference ticks; the first round (route opening) is
// discarded and the rest averaged to a one-way latency, exactly the
// paper's software-measured methodology.
func (c *Compiled) runPing(env *core.Env, p point, aRef, bRef NodeRef, rounds int) (Point, error) {
	pt := Point{Label: p.label, IntValue: p.intVal}
	if p.variant != nil {
		pt.PaperNS = p.variant.PaperNS
		pt.PaperInstrs = p.variant.PaperInstrs
	}
	m, release, err := env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, c.options(p))
	if err != nil {
		return pt, err
	}
	defer release()
	a, b := aRef.ID(), bRef.ID()
	if a == b {
		// The extra round mirrors the hand-written probe: rounds+1 trips
		// so that discarding the opening round still averages `rounds`.
		prog := workload.LocalPingPong(
			noc.MakeChanEndID(uint16(a), 0),
			noc.MakeChanEndID(uint16(a), 1), rounds+1)
		if err := m.Load(a, prog); err != nil {
			return pt, err
		}
	} else {
		if err := m.Load(b, workload.PingRx(noc.MakeChanEndID(uint16(a), 0), rounds)); err != nil {
			return pt, err
		}
		if err := m.Load(a, workload.PingTx(noc.MakeChanEndID(uint16(b), 0), rounds)); err != nil {
			return pt, err
		}
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		return pt, specFault(p.label, err)
	}
	trace := m.Core(a).DebugTrace
	if a != b && len(trace) != rounds {
		return pt, fmt.Errorf("%s: %d rounds recorded", p.label, len(trace))
	}
	if len(trace) < 2 {
		return pt, fmt.Errorf("%s: %d rounds recorded", p.label, len(trace))
	}
	// Each trace entry is a round trip in 10 ns reference ticks.
	var sum float64
	for _, rtt := range trace[1:] {
		sum += float64(rtt) * 10 / 2 // one way, ns
	}
	mean := sum / float64(len(trace)-1)
	lat := sim.Time(mean * float64(sim.Nanosecond))
	pt.NS = lat.Nanoseconds()
	pt.Instrs = pt.NS / instrTimeNS(c.freqMHz(p))
	return pt, nil
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
			return fmt.Errorf("%s: %s %v = %v, want [%d]", p.label, what, n, trace, want)
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
	return nil, nil, badf("%s: structure %q has no programs", p.label, c.Spec.Workload.Structure)
}

// bridgeNode is where boot images enter the machine: the Ethernet
// bridge's attachment on the grid's South edge.
func (c *Compiled) bridgeNode() topo.NodeID {
	return topo.MakeNodeID(0, c.Spec.Grid.SlicesY*topo.PackagesPerSliceY-1, topo.LayerV)
}

// bootedMachine returns a machine whose task images were network-
// booted at the spec's base operating point. With a warm state whose
// cached boot identity matches, the post-boot snapshot is restored in
// place of re-simulating the boot; on a miss the boot runs cold and
// (when ws is non-nil) the machine and a fresh snapshot are cached.
// The caller retunes to the point's operating point afterwards.
func (c *Compiled) bootedMachine(env *core.Env, p point, progs []progAt, nodes []topo.NodeID, items, rounds int, ws *warmState) (*core.Machine, func(), error) {
	// Everything the post-boot state depends on except the operating
	// point, which the caller retunes: structural links plus the values
	// the task images derive from.
	key := fmt.Sprintf("links=%d items=%d rounds=%d nodes=%v", p.links, items, rounds, nodes)
	if ws != nil && ws.m != nil && ws.key == key {
		ws.m.Restore(ws.snap)
		return ws.m, func() {}, nil
	}
	base := p
	base.freq = 0
	m, release, err := env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, c.options(base))
	if err != nil {
		return nil, nil, err
	}
	br, err := m.Bridge(c.bridgeNode())
	if err != nil {
		release()
		return nil, nil, err
	}
	var job nos.Job
	for i, pa := range progs {
		job.Add(fmt.Sprintf("task%d", i), pa.node, pa.prog)
	}
	if _, err := job.BootOverNetwork(m, br, sim.Second); err != nil {
		release()
		return nil, nil, specFault(p.label, err)
	}
	if ws == nil {
		return m, release, nil
	}
	ws.drop()
	ws.key, ws.m, ws.release, ws.snap = key, m, release, m.Snapshot()
	return m, func() {}, nil
}

// runProgram places one of the assembled program structures — host
// debug load, or nOS network boot for boot workloads — runs it to
// completion, verifies its result, and accounts time and energy over
// the placement's nodes.
func (c *Compiled) runProgram(env *core.Env, p point, nodes []topo.NodeID, items, rounds int, ws *warmState) (Point, error) {
	pt := Point{Label: p.label, IntValue: p.intVal}
	if st := c.Spec.Workload.Structure; st == "pipeline" || st == "farm" {
		pt.Items = items
	}
	progs, verify, err := c.programsFor(p, nodes, items, rounds)
	if err != nil {
		return pt, err
	}
	var m *core.Machine
	var release func()
	if c.Spec.Workload.Boot {
		m, release, err = c.bootedMachine(env, p, progs, nodes, items, rounds, ws)
		if err != nil {
			return pt, err
		}
		defer release()
		// Boot ran at the base operating point; the point's sweep values
		// apply from here (DFS after a common boot).
		if err := m.Retune(c.options(p).OperatingPoint()); err != nil {
			return pt, err
		}
	} else {
		m, release, err = env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, c.options(p))
		if err != nil {
			return pt, err
		}
		defer release()
		for _, pa := range progs {
			if err := m.Load(pa.node, pa.prog); err != nil {
				return pt, err
			}
		}
	}
	if err := m.Run(2 * sim.Second); err != nil {
		return pt, specFault(p.label, err)
	}
	if err := verify(m); err != nil {
		return pt, err
	}
	// End-to-end time: the last instruction issued anywhere in the
	// structure (Run polls on a coarse grid, so m.K.Now() overshoots).
	for _, n := range nodes {
		if t := m.Core(n).LastIssue; t > pt.Elapsed {
			pt.Elapsed = t
		}
		pt.CoreJ += m.Core(n).DynamicEnergyJ()
	}
	pt.LinkJ = m.Net.TotalLinkEnergyJ()
	if pt.Items > 0 {
		pt.PerItemJ = (pt.CoreJ + pt.LinkJ) / float64(pt.Items)
	}
	return pt, nil
}

// Render formats a Result under the spec's measure and table options.
func (c *Compiled) Render(res *Result) *report.Table {
	s := c.Spec
	title := "scenario: " + s.Name
	label, value, ratio := "point", "goodput", ""
	if s.Table != nil {
		if s.Table.Title != "" {
			title = s.Table.Title
		}
		if s.Table.Label != "" {
			label = s.Table.Label
		}
		if s.Table.Value != "" {
			value = s.Table.Value
		}
		ratio = s.Table.Ratio
	}
	switch s.Measure {
	case "goodput_fraction":
		t := report.NewTable(title, "payload bytes", "analytic n/(n+4)", "simulated")
		for _, p := range res.Points {
			t.AddRow(fmt.Sprintf("%d", p.Payload),
				fmt.Sprintf("%.3f", p.Analytic),
				fmt.Sprintf("%.3f", p.Fraction))
		}
		return t
	case "latency":
		t := report.NewTable(title, "placement", "paper ns", "paper instrs", "sim ns", "sim instrs")
		for _, p := range res.Points {
			pns, pin := "-", "-"
			if p.PaperNS > 0 {
				pns = fmt.Sprintf("%.0f", p.PaperNS)
			}
			if p.PaperInstrs > 0 {
				pin = fmt.Sprintf("%.0f", p.PaperInstrs)
			}
			t.AddRow(p.Label, pns, pin,
				fmt.Sprintf("%.0f", p.NS),
				fmt.Sprintf("%.0f", p.Instrs))
		}
		return t
	case "ec":
		t := report.NewTable(title, "regime", "E bit/s", "C bit/s (sim)", "EC (sim)", "EC (paper)")
		for _, p := range res.Points {
			t.AddRow(p.Label,
				report.FormatSI(p.EBps),
				report.FormatSI(p.CBps),
				fmt.Sprintf("%.0f", p.EC),
				fmt.Sprintf("%.0f", p.PaperEC))
		}
		return t
	case "energy":
		t := report.NewTable(title, label, "items", "elapsed", "core dynamic J", "link J", "J/item")
		for _, p := range res.Points {
			items, perItem := "-", "-"
			if p.Items > 0 {
				items = fmt.Sprintf("%d", p.Items)
				perItem = fmt.Sprintf("%.3g", p.PerItemJ)
			}
			t.AddRow(p.Label, items, p.Elapsed.String(),
				fmt.Sprintf("%.3g", p.CoreJ),
				fmt.Sprintf("%.3g", p.LinkJ), perItem)
		}
		return t
	default: // aggregate_goodput
		headers := []string{label, value}
		if ratio != "" {
			headers = append(headers, ratio)
		}
		t := report.NewTable(title, headers...)
		base := res.Points[0].GoodputBps
		for _, p := range res.Points {
			row := []string{p.Label, report.FormatSI(p.GoodputBps) + "bit/s"}
			if ratio != "" {
				// A flow-less first point (e.g. an idle variant) has zero
				// goodput; render "-" rather than NaN/Inf ratios.
				cell := "-"
				if base > 0 {
					cell = fmt.Sprintf("%.2fx", p.GoodputBps/base)
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		return t
	}
}
