package scenario

import (
	"fmt"
	"slices"
	"strconv"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/harness"
	"swallow/internal/harness/sweep"
	"swallow/internal/metrics"
	"swallow/internal/noc"
	"swallow/internal/nos"
	"swallow/internal/power"
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
	// Fit is Eq. 1 fitted to a rail_power sweep over freq_mhz alone.
	Fit *Fit
}

// Fit is a linear fit of per-core power (mW) against the clock (MHz).
type Fit struct {
	SlopeMWPerMHz, InterceptMW, R2 float64
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

	// aggregate_goodput; bridge_rate's ingress rate
	GoodputBps float64

	// link_energy: the one link class the flows loaded, its energy per
	// bit, its power over its wire-busy time (the saturated power Table
	// I's max-power column states) and its busy share of the flows'
	// window, start to last arrival
	Class                  energy.LinkClass
	PJPerBit, LinkMW, Busy float64

	// energy; Elapsed is also boot_cost's boot time
	Items                  int
	Elapsed                sim.Time
	CoreJ, LinkJ, PerItemJ float64
	// boot_cost: the image bytes streamed through the bridge
	ImageBytes int

	// load: the point's clock and threads per core
	FreqMHz float64
	Threads int
	// mips: instructions per second, simulated and Eq. 2's
	IPS, ModelIPS float64
	// core_power (W): at the spec's VDD, and at VMin simulated and
	// modelled
	VMin, CoreW, DVFSW, ModelDVFSW float64
	// rail_power (W): the placement's rail loaded and on an idle
	// machine, beside Eq. 1 and the idle fit for its cores
	RailW, IdleW, ModelRailW, ModelIdleW float64
	// budget (W per node): the energy report's wedges over the window
	ComputeW, BackgroundW, ConversionW, SupportW, LinkW, NodeW float64
	// adc_rates: slice 0's mean input power over the all-channel trace
	InputW float64
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
	if s.Workload.Structure == "load" && s.Measure != "boot_cost" && s.Measure != "adc_rates" {
		uses |= harness.UsesIters
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
	threads int
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
			for _, n := range cfg.LatencyPlacements {
				if !slices.Contains(names, n) {
					return nil, badf("unknown %s %q (have %v)", ax.Param, n, names)
				}
			}
			ax.Variants = slices.DeleteFunc(slices.Clone(ax.Variants), func(v Variant) bool {
				return !slices.Contains(cfg.LatencyPlacements, v.Name)
			})
		}
		axes[i] = ax
	}
	// Overrides replace grids wholesale, so the cross product must be
	// re-bounded: Validate only saw the spec's own grids.
	if err := boundPoints(axes); err != nil {
		return nil, err
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
					case "threads":
						p.threads = v
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
	axes, err := c.axesFor(cfg)
	if err != nil {
		return nil, err
	}
	if c.Artifact.Uses&harness.UsesIters != 0 && (cfg.Iters < 0 || cfg.Iters > harness.MaxIters) {
		return nil, badf("iters %d outside 0-%d", cfg.Iters, harness.MaxIters)
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
			return c.runPoint(env, cfg.Iters, p, ws)
		})
	if err != nil {
		return nil, err
	}
	res := &Result{Points: points}
	if c.Spec.Measure == "rail_power" && c.Spec.clockSweep() {
		xs, ys := make([]float64, len(points)), make([]float64, len(points))
		for i, p := range points {
			xs[i], ys[i] = p.FreqMHz, p.RailW/core.CoresPerSupply*1e3
		}
		if slope, intercept, r2, err := metrics.LinearFit(xs, ys); err == nil {
			res.Fit = &Fit{slope, intercept, r2}
		}
	}
	return res, nil
}

// clockSweep reports whether the spec sweeps freq_mhz and nothing else.
func (s Spec) clockSweep() bool { return len(s.Sweep) == 1 && s.Sweep[0].Param == "freq_mhz" }

// runPoint resolves the point's workload (base plus variant
// overrides) and dispatches on the structure.
func (c *Compiled) runPoint(env *core.Env, iters int, p point, ws *warmState) (Point, error) {
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
	}
	ids, err := c.programNodes(nodes)
	if err != nil {
		return Point{}, err
	}
	if w.Structure == "load" {
		threads := *w.Threads
		if p.threads > 0 {
			threads = p.threads
		}
		return c.runLoad(env, p, ids, threads, iters)
	}
	return c.runProgram(env, p, ids, items, rounds, ws)
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

// runTraffic drives host-level flows, or for bridge_rate the grid's
// bridge, and reduces them under the traffic measures.
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
	if c.Spec.Measure == "bridge_rate" {
		pt.GoodputBps, err = c.bridgeRate(m, p.label)
		return pt, err
	}
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
	t0 := m.K.Now()
	if err := workload.RunFlows(m.K, fs, sim.Second); err != nil {
		return pt, specFault(p.label, err)
	}
	if c.Spec.Measure == "link_energy" {
		return linkEnergy(pt, m, fs, t0)
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

// linkEnergy reads the one link class a point's flows loaded: what
// Table I states of it, measured. Flows that load two classes, or none,
// measure nothing a row can name.
func linkEnergy(pt Point, m *core.Machine, fs []*workload.Flow, t0 sim.Time) (Point, error) {
	stats := m.Net.StatsByClass()
	var loaded []energy.LinkClass
	for class := energy.LinkClass(0); int(class) < energy.NumLinkClasses; class++ {
		if stats[class].Tokens > 0 {
			loaded = append(loaded, class)
		}
	}
	if len(loaded) != 1 {
		return pt, specFault(pt.Label, fmt.Errorf("link_energy needs flows that load exactly one link class, these load %v", loaded))
	}
	var last sim.Time
	for _, f := range fs {
		last = max(last, f.LastArrival)
	}
	st := stats[loaded[0]]
	pt.Class = loaded[0]
	pt.PJPerBit = st.EnergyPerBit() * 1e12
	pt.LinkMW = st.MeanPowerW(st.Busy) * 1e3
	pt.Busy = st.Utilization(last - t0)
	return pt, nil
}

// bridgeBytes is what bridge_rate streams through the bridge.
const bridgeBytes = 40000

// bridgeRate streams bridgeBytes from the grid's bridge to channel end
// 1 of its own core and returns bits over the time to drain. Delivery
// is switch-local, so the bridge's 80 Mbit/s Ethernet pacing binds,
// not a 62.5 Mbit/s board link.
func (c *Compiled) bridgeRate(m *core.Machine, label string) (float64, error) {
	br, err := m.Bridge(c.bridgeNode())
	if err != nil {
		return 0, err
	}
	dst := m.Net.Switch(c.bridgeNode()).ChanEnd(1)
	dst.SetWake(func() {
		for {
			if _, ok := dst.TryIn(); !ok {
				return
			}
		}
	})
	start := m.K.Now()
	br.Send(dst.ID(), make([]byte, bridgeBytes))
	for i := 0; i < 10000 && br.Pending() > 0; i++ {
		m.K.RunFor(100 * sim.Microsecond)
	}
	if br.Pending() > 0 {
		return 0, fmt.Errorf("%s: bridge did not drain", label)
	}
	return float64(bridgeBytes) * 8 / (m.K.Now() - start).Seconds(), nil
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
		return nil, st, nil, specFault(p.label, err)
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
		// Boot at the base operating point, keyed by everything the
		// post-boot state depends on but that: structural links plus the
		// values the task images derive from. The point's sweep values
		// apply from here (DFS after a common boot).
		base := p
		base.freq = 0
		key := fmt.Sprintf("links=%d items=%d rounds=%d nodes=%v", p.links, items, rounds, nodes)
		m, _, release, err = c.bootedMachine(env, base, key, progs, ws)
		if err != nil {
			return pt, err
		}
		defer release()
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

// The load measures' settling: the load warms up, then the instrument
// reads over the window (the budget's window is longer).
const (
	loadWarmup   = 50 * sim.Microsecond
	loadWindow   = 500 * sim.Microsecond
	budgetWindow = sim.Millisecond
)

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

// runLoad places the load on the point's nodes and reads the measure's
// instrument: BusyLoop run to completion, its instructions over the
// last issue (mips); or HeavyLoad settled and then the nodes' power at
// the spec's VDD and again at VMin, on a machine each (core_power), the
// rail feeding them loaded and then on an idle machine (rail_power), or
// the energy report's wedges per node (budget). boot_cost and adc_rates
// fix their own programs.
func (c *Compiled) runLoad(env *core.Env, p point, nodes []topo.NodeID, threads, iters int) (Point, error) {
	f, n := c.freqMHz(p), float64(len(nodes))
	pt := Point{Label: p.label, IntValue: p.intVal, FreqMHz: f, Threads: threads}
	opts := c.options(p)
	switch c.Spec.Measure {
	case "boot_cost":
		return c.bootCost(env, pt, p, nodes)
	case "adc_rates":
		return c.adcRates(env, pt, opts, nodes, threads)
	case "mips":
		m, release, err := c.loaded(env, opts, nodes, workload.BusyLoop(threads, iters))
		if err != nil {
			return pt, err
		}
		defer release()
		if err := m.Run(sim.Second); err != nil {
			return pt, specFault(p.label, err)
		}
		var instrs uint64
		var last sim.Time
		for _, nd := range nodes {
			instrs += m.Core(nd).InstrCount
			last = max(last, m.Core(nd).LastIssue)
		}
		pt.IPS = float64(instrs) / last.Seconds()
		pt.ModelIPS = n * metrics.IPSCore(f*1e6, threads)
		return pt, nil
	}
	heavy := workload.HeavyLoad(threads, iters)
	switch c.Spec.Measure {
	case "core_power":
		coreW := func(opts core.Options) (float64, error) {
			m, release, err := c.loaded(env, opts, nodes, heavy)
			if err != nil {
				return 0, err
			}
			defer release()
			m.RunFor(loadWarmup)
			joules := func() (j float64) {
				for _, nd := range nodes {
					j += m.Core(nd).EnergyJ()
				}
				return j
			}
			e0, t0 := joules(), m.K.Now()
			m.RunFor(loadWindow)
			return (joules() - e0) / (m.K.Now() - t0).Seconds(), nil
		}
		var err error
		if pt.CoreW, err = coreW(opts); err != nil {
			return pt, err
		}
		low := *opts.Core
		low.VDD = energy.VMin(f)
		opts.Core = &low
		if pt.DVFSW, err = coreW(opts); err != nil {
			return pt, err
		}
		pt.VMin = low.VDD
		pt.ModelDVFSW = n * energy.CorePowerDVFS(f, threads)
	case "rail_power":
		m, release, err := c.loaded(env, opts, nodes, heavy)
		if err != nil {
			return pt, err
		}
		defer release()
		slice, rail := core.Rail(m.Sys, nodes[0])
		m.RunFor(loadWarmup)
		m.Board(slice).SampleAll()
		m.RunFor(loadWindow)
		pt.RailW = m.Board(slice).SampleAll().OutputW[rail]
		idle, releaseIdle, err := env.Checkout(c.Spec.Grid.SlicesX, c.Spec.Grid.SlicesY, opts)
		if err != nil {
			return pt, err
		}
		defer releaseIdle()
		idle.RunFor(loadWindow)
		pt.IdleW = idle.Board(slice).SampleAll().OutputW[rail]
		pt.ModelRailW = core.CoresPerSupply * energy.CorePowerActive(f)
		pt.ModelIdleW = core.CoresPerSupply * energy.CorePowerIdle(f)
	default: // budget
		m, release, err := c.loaded(env, opts, nodes, heavy)
		if err != nil {
			return pt, err
		}
		defer release()
		m.RunFor(loadWarmup)
		r0 := m.Report()
		m.RunFor(budgetWindow)
		r1 := m.Report()
		window := (r1.Elapsed - r0.Elapsed).Seconds()
		perNode := func(j0, j1 float64) float64 { return (j1 - j0) / window / float64(m.CoreCount()) }
		pt.ComputeW = perNode(r0.ComputationJ, r1.ComputationJ)
		pt.BackgroundW = perNode(r0.BackgroundJ, r1.BackgroundJ)
		pt.ConversionW = perNode(r0.ConversionJ, r1.ConversionJ)
		pt.SupportW = perNode(r0.SupportJ, r1.SupportJ)
		pt.LinkW = perNode(r0.LinkJ, r1.LinkJ)
		pt.NodeW = pt.ComputeW + pt.BackgroundW + pt.ConversionW + pt.SupportW + pt.LinkW
	}
	return pt, nil
}

// bootCost network-boots the nOS getid/dbg/tend image onto the nodes
// through the grid's bridge at the point's operating point, runs it,
// and reports the image bytes streamed and the boot time.
func (c *Compiled) bootCost(env *core.Env, pt Point, p point, nodes []topo.NodeID) (Point, error) {
	image := xs1.MustAssemble("getid r0\ndbg r0\ntend\n")
	progs := make([]progAt, len(nodes))
	for i, n := range nodes {
		progs[i] = progAt{n, image}
	}
	m, st, release, err := c.bootedMachine(env, p, "", progs, nil)
	if err != nil {
		return pt, err
	}
	defer release()
	if err := m.Run(100 * sim.Millisecond); err != nil {
		return pt, specFault(p.label, err)
	}
	pt.ImageBytes, pt.Elapsed = st.ImageBytes, st.Elapsed
	return pt, nil
}

// The adc_rates load and trace length.
const (
	adcIters   = 40000
	adcSamples = 200
)

// adcRates loads the nodes and exercises slice 0's daughter-board at
// the Section II limits: a trace of every channel at 1 MS/s (whose mean
// input power the point reports), one channel at 2 MS/s, and an
// over-rate request that must be refused. A limit the board does not
// keep fails the run.
func (c *Compiled) adcRates(env *core.Env, pt Point, opts core.Options, nodes []topo.NodeID, threads int) (Point, error) {
	m, release, err := c.loaded(env, opts, nodes, workload.HeavyLoad(threads, adcIters))
	if err != nil {
		return pt, err
	}
	defer release()
	board := m.Board(0)
	m.RunFor(20 * sim.Microsecond)
	board.SampleAll()
	all, err := board.StartTrace(power.MaxAllChannelHz, adcSamples)
	if err != nil {
		return pt, err
	}
	m.RunFor(250 * sim.Microsecond)
	if len(all.Samples) != adcSamples {
		return pt, fmt.Errorf("%s: all-channel trace collected %d samples, want %d", pt.Label, len(all.Samples), adcSamples)
	}
	pt.InputW = all.MeanInputW()
	single, err := power.NewBoard(m.K, m.Supplies(0)[:1])
	if err != nil {
		return pt, err
	}
	one, err := single.StartTrace(power.MaxSingleChannelHz, adcSamples)
	if err != nil {
		return pt, err
	}
	m.RunFor(150 * sim.Microsecond)
	if len(one.Samples) != adcSamples {
		return pt, fmt.Errorf("%s: single-channel trace collected %d samples, want %d", pt.Label, len(one.Samples), adcSamples)
	}
	if _, err := board.StartTrace(power.MaxAllChannelHz*1.5, 4); err == nil {
		return pt, fmt.Errorf("%s: over-rate all-channel trace accepted", pt.Label)
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
	case "link_energy":
		t := report.NewTable(title, "link type", "data rate", "max power", "pJ/bit (paper)", "pJ/bit (sim)", "mW (sim)")
		for _, p := range res.Points {
			spec := energy.LinkSpecs[p.Class]
			t.AddRow(p.Class.String(),
				report.FormatSI(spec.DataRateBitsPerSec)+"bit/s",
				fmt.Sprintf("%.1f mW", spec.MaxPowerW*1e3),
				fmt.Sprintf("%.1f", spec.EnergyPerBit()*1e12),
				fmt.Sprintf("%.1f", p.PJPerBit),
				fmt.Sprintf("%.1f", p.LinkMW))
		}
		return t
	case "boot_cost":
		// One point reads as the boot itself; a sweep names its points.
		headers := []string{"image bytes", "boot time"}
		if len(res.Points) > 1 {
			headers = append([]string{label}, headers...)
		}
		t := report.NewTable(title, headers...)
		for _, p := range res.Points {
			row := []string{fmt.Sprintf("%d", p.ImageBytes), p.Elapsed.String()}
			if len(res.Points) > 1 {
				row = append([]string{p.Label}, row...)
			}
			t.AddRow(row...)
		}
		return t
	case "adc_rates":
		// A limit the board does not keep fails the run, so every point
		// that renders passed all three.
		t := report.NewTable(title, append([]string{"check"}, pointColumns(res, "result")...)...)
		for _, check := range []string{
			fmt.Sprintf("all channels @ %s", report.FormatSI(power.MaxAllChannelHz)+"S/s"),
			fmt.Sprintf("single channel @ %s", report.FormatSI(power.MaxSingleChannelHz)+"S/s"),
			"over-rate trace rejected",
		} {
			row := []string{check}
			for range res.Points {
				row = append(row, "ok")
			}
			t.AddRow(row...)
		}
		return t
	case "mips":
		t := report.NewTable(title, label, "model MIPS", "simulated MIPS")
		for _, p := range res.Points {
			t.AddRow(p.Label, fmt.Sprintf("%.1f", p.ModelIPS/1e6), fmt.Sprintf("%.1f", p.IPS/1e6))
		}
		return t
	case "core_power", "rail_power":
		// The power tables read against the clock; a sweep over anything
		// else names its points in a leading column.
		var headers []string
		if !s.clockSweep() {
			headers = append(headers, label)
		}
		headers = append(headers, "MHz")
		if s.Measure == "core_power" {
			headers = append(headers, "Vmin", fmt.Sprintf("P at %gV (sim)", s.Operating.VDD),
				"P DVFS (model)", "P DVFS (sim)", "saving")
		} else {
			headers = append(headers, "P active (model)", "P active (sim)", "P idle (model)", "P idle (sim)")
		}
		t := report.NewTable(title, headers...)
		mW := func(w float64) string { return fmt.Sprintf("%.0f mW", w*1e3) }
		for _, p := range res.Points {
			var row []string
			if !s.clockSweep() {
				row = append(row, p.Label)
			}
			row = append(row, fmt.Sprintf("%.0f", p.FreqMHz))
			if s.Measure == "core_power" {
				row = append(row, fmt.Sprintf("%.2f V", p.VMin), mW(p.CoreW), mW(p.ModelDVFSW), mW(p.DVFSW),
					fmt.Sprintf("%.0f%%", 100*(1-p.DVFSW/p.CoreW)))
			} else {
				row = append(row, mW(p.ModelRailW), mW(p.RailW), mW(p.ModelIdleW), mW(p.IdleW))
			}
			t.AddRow(row...)
		}
		if f := res.Fit; f != nil {
			t.AddRow("(fit)", fmt.Sprintf("Pc = %.1f + %.3f f", f.InterceptMW, f.SlopeMWPerMHz),
				fmt.Sprintf("r2 = %.5f", f.R2), "paper: 46 + 0.30 f")
		}
		return t
	case "budget":
		b := energy.PaperNodeBudget
		rows := [][]string{
			{"computation & memory ops", fmt.Sprintf("%.0f mW (30%%)", b.ComputationW*1e3)},
			{"static + network interface", fmt.Sprintf("%.0f mW (48%%)", (b.StaticW+b.NetworkInterfaceW)*1e3)},
			{"DC-DC & I/O + other", fmt.Sprintf("%.0f mW (22%%)", (b.ConversionIOW+b.OtherW)*1e3)},
			{"total per node", fmt.Sprintf("%.0f mW", b.TotalW()*1e3)},
		}
		headers := append([]string{"component", "paper"}, pointColumns(res, "simulated")...)
		for _, p := range res.Points {
			for i, w := range []float64{p.ComputeW, p.BackgroundW, p.ConversionW + p.SupportW + p.LinkW, p.NodeW} {
				rows[i] = append(rows[i], fmt.Sprintf("%.0f mW", w*1e3))
			}
		}
		t := report.NewTable(title, headers...)
		for _, row := range rows {
			t.AddRow(row...)
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

// pointColumns heads the one-column-per-point layouts: one for a single
// point, else each point's label.
func pointColumns(res *Result, single string) []string {
	if len(res.Points) == 1 {
		return []string{single}
	}
	cols := make([]string, len(res.Points))
	for i, p := range res.Points {
		cols[i] = p.Label
	}
	return cols
}
