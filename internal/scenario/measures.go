package scenario

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/metrics"
	"swallow/internal/noc"
	"swallow/internal/power"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// A measure is what each point of a spec reports: the structures it
// applies to, what it reads of the run and the spec, its instrument and
// its table. measureTable holds one per name.
type measure struct {
	on []string
	// iters: the instrument's load runs harness.Config.Iters per thread.
	iters bool
	// flows is the traffic flow rule.
	flows flowRule
	// check holds the spec to what the instrument needs beyond its
	// structure's rules.
	check func(s Spec, sys topo.System) error
	// run reads the point from what its structure runner checked out,
	// one value per column of cols. The columns with a head fill the
	// table in order: one row per point, or with lead set one row per
	// column, its head's "|"-separated cells leading, under the headers
	// lead and one per point (single when there is one). "{vdd}" in a
	// head reads the spec's supply voltage.
	run  func(r *reading) ([]float64, error)
	cols []Col
	lead []string
	// single heads a transposed table's one point column.
	single string
	// labelHead heads the point's label ahead of the columns; label,
	// when true of the spec and its point count, puts it there headed
	// by Table.Label instead.
	labelHead string
	label     func(s Spec, points int) bool
	// value names the column Table.Value heads and Table.Ratio compares
	// with the first point's.
	value string
	// summary derives Result.Extra from the points, and extra formats
	// each of its rows.
	summary func(s Spec, points []Point) []Point
	extra   func(Point) []string
}

// flowRule is whether a traffic measure needs flows.
type flowRule int

const (
	needFlows     flowRule = iota
	optionalFlows          // a point without flows checks out no machine
	noFlows                // the grid's bridge is the one source
)

// Label rules: always, on a sweep over more than the clock, on more
// than one point.
func always(Spec, int) bool            { return true }
func notClock(s Spec, _ int) bool      { return !s.clockSweep() }
func severalPoints(_ Spec, n int) bool { return n > 1 }

// Cell formats.
var (
	whole   = fixed("%.0f", 0)
	general = fixed("%g", 0)
	mW0     = fixed("%.0f mW", 3)
	bits    = func(v float64) string { return report.FormatSI(v) + "bit/s" }
	class   = func(v float64) string { return energy.LinkClass(v).String() }
	ok      = func(float64) string { return "ok" }
	// span reads seconds as the sim.Time they came from: rounding
	// recovers it exactly for any run shorter than about 1 000 s.
	span = func(v float64) string { return sim.Time(math.Round(v * float64(sim.Second))).String() }
)

// fixed formats v at 10^exp with verb.
func fixed(verb string, exp int) func(float64) string {
	return func(v float64) string { return fmt.Sprintf(verb, Scale(v, exp)) }
}

// positive formats v with f, or "-" when v is not positive: an absent
// paper value or item count.
func positive(f func(float64) string) func(float64) string {
	return func(v float64) string {
		if v > 0 {
			return f(v)
		}
		return "-"
	}
}

// col declares a measure's column.
func col(name, unit, head string, format func(float64) string) Col {
	return Col{Name: name, Unit: unit, head: head, format: format}
}

// The load measures' settling: the load warms up, then the instrument
// reads over the window (the budget's window is longer).
const (
	loadWarmup   = 50 * sim.Microsecond
	loadWindow   = 500 * sim.Microsecond
	budgetWindow = sim.Millisecond
)

// bridgeBytes is what bridge_rate streams through the bridge.
const bridgeBytes = 40000

// The adc_rates load and trace length.
const (
	adcIters   = 40000
	adcSamples = 200
)

// paperBudget is Fig. 2's printed node budget.
var paperBudget = energy.PaperNodeBudget

// goodputCols is what aggregate_goodput and bridge_rate read.
var goodputCols = []Col{col("goodput", "bit/s", "goodput", bits)}

// measureTable is every measure by name. See Spec.Measure.
var measureTable = map[string]*measure{
	// Section V-B: the flows' aggregate goodput over the external link
	// rate, beside the analytic n/(n+4) of the point's payload.
	"goodput_fraction": {
		on: []string{"traffic"},
		check: func(s Spec, _ topo.System) error {
			if !slices.ContainsFunc(s.Sweep, func(ax Axis) bool { return ax.Param == "payload" && ax.kind() == "ints" }) {
				return badf("measure: goodput_fraction needs a payload axis")
			}
			return nil
		},
		run: func(r *reading) ([]float64, error) {
			n := r.p.Value("payload")
			return []float64{n, n / (n + noc.HeaderTokens + 1), workload.AggregateGoodput(r.fs) / r.opts.Noc.External.BitRate()}, nil
		},
		cols: []Col{
			col("payload", "B", "payload bytes", whole), col("analytic", "", "analytic n/(n+4)", fixed("%.3f", 0)),
			col("fraction", "", "simulated", fixed("%.3f", 0)),
		},
	},
	"aggregate_goodput": {
		on: []string{"traffic"},
		run: func(r *reading) ([]float64, error) {
			return []float64{workload.AggregateGoodput(r.fs)}, nil
		},
		cols:  goodputCols,
		label: always,
		value: "goodput",
	},
	// Section V-D: E at the point's clock, fully threaded (Eq. 2) and
	// scaled by the regime's cores, over the flows' aggregate C. A regime
	// without flows is issue-limited: C = E analytically.
	"ec": {
		on:    []string{"traffic"},
		flows: optionalFlows,
		check: func(s Spec, _ topo.System) error {
			if !slices.ContainsFunc(s.Sweep, func(ax Axis) bool { return ax.kind() == "variants" }) {
				return badf("measure: ec needs a variants axis of regimes")
			}
			return nil
		},
		run: func(r *reading) ([]float64, error) {
			e := metrics.ExecutionBitRate(metrics.IPSCore(r.c.freqMHz(r.p)*1e6, 4))
			mult, paper := 1.0, 0.0
			if v := r.p.variant; v != nil {
				mult, paper = v.EMult, v.PaperEC
			}
			e *= mult
			c := e
			if r.m != nil {
				c = workload.AggregateGoodput(r.fs)
			}
			return []float64{e, c, metrics.EC(e, c), paper}, nil
		},
		cols: []Col{
			col("e", "bit/s", "E bit/s", report.FormatSI), col("c", "bit/s", "C bit/s (sim)", report.FormatSI),
			col("ec", "", "EC (sim)", whole), col("paper_ec", "", "EC (paper)", whole),
		},
		labelHead: "regime",
	},
	// Table I: the one link class the point's flows loaded, what the
	// paper states of it, and measured its energy per bit, its power
	// over its wire-busy time (the saturated power the max-power column
	// states) and its busy share of the flows' window, start to last
	// arrival. Flows that load two classes, or none, measure nothing a
	// row can name.
	"link_energy": {
		on: []string{"traffic"},
		run: func(r *reading) ([]float64, error) {
			stats := r.m.Net.StatsByClass()
			var loaded []energy.LinkClass
			for class := energy.LinkClass(0); int(class) < energy.NumLinkClasses; class++ {
				if stats[class].Tokens > 0 {
					loaded = append(loaded, class)
				}
			}
			if len(loaded) != 1 {
				return nil, specFault(r.p.Label, fmt.Errorf("link_energy needs flows that load exactly one link class, these load %v", loaded))
			}
			var last sim.Time
			for _, f := range r.fs {
				last = max(last, f.LastArrival)
			}
			st, spec := stats[loaded[0]], energy.LinkSpecs[loaded[0]]
			return []float64{
				float64(loaded[0]), spec.DataRateBitsPerSec, spec.MaxPowerW, spec.EnergyPerBit(),
				st.EnergyPerBit(), st.MeanPowerW(st.Busy), st.Utilization(last - r.t0),
			}, nil
		},
		cols: []Col{
			col("class", "", "link type", class), col("rate", "bit/s", "data rate", bits),
			col("max_power", "W", "max power", fixed("%.1f mW", 3)),
			col("paper_bit_energy", "J/bit", "pJ/bit (paper)", fixed("%.1f", 12)),
			col("bit_energy", "J/bit", "pJ/bit (sim)", fixed("%.1f", 12)),
			col("power", "W", "mW (sim)", fixed("%.1f", 3)), col("busy", "", "", fixed("%.3f", 0)),
		},
	},
	// The Ethernet bridge streams bridgeBytes to channel end 1 of its own
	// core: bits over the time to drain. Delivery is switch-local, so the
	// bridge's 80 Mbit/s Ethernet pacing binds, not a 62.5 Mbit/s board
	// link.
	"bridge_rate": {
		on:    []string{"traffic"},
		flows: noFlows,
		run: func(r *reading) ([]float64, error) {
			m, at := r.m, r.c.bridgeNode()
			br, err := m.Bridge(at)
			if err != nil {
				return nil, err
			}
			dst := m.Net.Switch(at).ChanEnd(1)
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
				return nil, fmt.Errorf("%s: bridge did not drain", r.p.Label)
			}
			return []float64{float64(bridgeBytes) * 8 / (m.K.Now() - start).Seconds()}, nil
		},
		cols:  goodputCols,
		label: always,
		value: "goodput",
	},
	// Section V-C: the probe's round trips, in 10 ns reference ticks,
	// with the first (route opening) discarded and the rest averaged to
	// a one-way latency — the paper's software-measured methodology —
	// beside the variant's paper values.
	"latency": {
		on: []string{"ping"},
		run: func(r *reading) ([]float64, error) {
			trace := r.m.Core(r.nodes[0]).DebugTrace
			if r.nodes[0] != r.nodes[1] && len(trace) != r.rounds || len(trace) < 2 {
				return nil, fmt.Errorf("%s: %d rounds recorded", r.p.Label, len(trace))
			}
			var sum float64
			for _, rtt := range trace[1:] {
				sum += float64(rtt) * 10 / 2 // one way, ns
			}
			ns := sim.Time(sum / float64(len(trace)-1) * float64(sim.Nanosecond)).Nanoseconds()
			var paperNS, paperInstrs float64
			if v := r.p.variant; v != nil {
				paperNS, paperInstrs = v.PaperNS, v.PaperInstrs
			}
			// An instruction takes 4000/f ns single-threaded (Eq. 2), 8 ns
			// at 500 MHz: the unit of the instruction-equivalent column.
			return []float64{paperNS, paperInstrs, ns, ns / (4e3 / r.c.freqMHz(r.p))}, nil
		},
		cols: []Col{
			col("paper_ns", "ns", "paper ns", positive(whole)), col("paper_instrs", "", "paper instrs", positive(whole)),
			col("ns", "ns", "sim ns", whole), col("instrs", "", "sim instrs", whole),
		},
		labelHead: "placement",
	},
	// The program structures' time and energy over the placement:
	// end-to-end time is the last instruction issued anywhere in the
	// structure (Run polls on a coarse grid, so m.K.Now() overshoots).
	"energy": {
		on: []string{"pipeline", "ring", "farm", "group"},
		run: func(r *reading) ([]float64, error) {
			var elapsed sim.Time
			var coreJ float64
			for _, n := range r.nodes {
				elapsed = max(elapsed, r.m.Core(n).LastIssue)
				coreJ += r.m.Core(n).DynamicEnergyJ()
			}
			linkJ, perItem := r.m.Net.TotalLinkEnergyJ(), 0.0
			if r.items > 0 {
				perItem = (coreJ + linkJ) / float64(r.items)
			}
			return []float64{float64(r.items), elapsed.Seconds(), coreJ, linkJ, perItem}, nil
		},
		cols: []Col{
			col("items", "", "items", positive(whole)), col("elapsed", "s", "elapsed", span),
			col("core_energy", "J", "core dynamic J", fixed("%.3g", 0)), col("link_energy", "J", "link J", fixed("%.3g", 0)),
			col("item_energy", "J", "J/item", positive(fixed("%.3g", 0))),
		},
		label: always,
	},
	// Eq. 2: BusyLoop run to completion, its instructions over the last
	// issue, beside the model's rate.
	"mips": {
		on:    []string{"load"},
		iters: true,
		run: func(r *reading) ([]float64, error) {
			m, release, err := r.c.loaded(r.env, r.opts, r.nodes, workload.BusyLoop(r.threads, r.iters))
			if err != nil {
				return nil, err
			}
			defer release()
			if err := m.Run(sim.Second); err != nil {
				return nil, specFault(r.p.Label, err)
			}
			var instrs uint64
			var last sim.Time
			for _, nd := range r.nodes {
				instrs += m.Core(nd).InstrCount
				last = max(last, m.Core(nd).LastIssue)
			}
			model := float64(len(r.nodes)) * metrics.IPSCore(r.c.freqMHz(r.p)*1e6, r.threads)
			return []float64{model, float64(instrs) / last.Seconds()}, nil
		},
		cols:  []Col{col("model_ips", "1/s", "model MIPS", fixed("%.1f", -6)), col("ips", "1/s", "simulated MIPS", fixed("%.1f", -6))},
		label: always,
	},
	// Fig. 4: the settled nodes' power at the spec's VDD and at VMin, on
	// a machine each, beside the DVFS model.
	"core_power": {
		on:    []string{"load"},
		iters: true,
		run: func(r *reading) ([]float64, error) {
			f := r.c.freqMHz(r.p)
			heavy := workload.HeavyLoad(r.threads, r.iters)
			power := func(opts core.Options) (float64, error) {
				m, release, err := r.c.loaded(r.env, opts, r.nodes, heavy)
				if err != nil {
					return 0, err
				}
				defer release()
				m.RunFor(loadWarmup)
				joules := func() (j float64) {
					for _, nd := range r.nodes {
						j += m.Core(nd).EnergyJ()
					}
					return j
				}
				e0, t0 := joules(), m.K.Now()
				m.RunFor(loadWindow)
				return (joules() - e0) / (m.K.Now() - t0).Seconds(), nil
			}
			at, err := power(r.opts)
			if err != nil {
				return nil, err
			}
			opts, low := r.opts, *r.opts.Core
			low.VDD = energy.VMin(f)
			opts.Core = &low
			dvfs, err := power(opts)
			if err != nil {
				return nil, err
			}
			model := float64(len(r.nodes)) * energy.CorePowerDVFS(f, r.threads)
			return []float64{f, low.VDD, at, model, dvfs, 1 - dvfs/at}, nil
		},
		cols: []Col{
			col("mhz", "MHz", "MHz", whole), col("vmin", "V", "Vmin", fixed("%.2f V", 0)),
			col("power", "W", "P at {vdd}V (sim)", mW0), col("model_dvfs_power", "W", "P DVFS (model)", mW0),
			col("dvfs_power", "W", "P DVFS (sim)", mW0), col("saving", "", "saving", fixed("%.0f%%", 2)),
		},
		label: notClock,
	},
	// Fig. 3: the 1 V rail feeding the settled placement, and the same
	// rail of an idle machine, beside Eq. 1 and the idle fit for its
	// cores; a clock sweep adds Eq. 1 fitted to the rail's per-core
	// power.
	"rail_power": {
		on:    []string{"load"},
		iters: true,
		check: func(s Spec, sys topo.System) error {
			for i, ax := range s.Sweep {
				for j, v := range ax.Variants {
					if len(v.Nodes) > 0 {
						if err := checkRail(sys, ids(v.Nodes), fmt.Sprintf("sweep[%d].variants[%d].nodes", i, j)); err != nil {
							return err
						}
					}
				}
			}
			nodes, err := s.placementNodes(sys)
			if err != nil {
				return err
			}
			return checkRail(sys, nodes, "workload.placement")
		},
		run: func(r *reading) ([]float64, error) {
			m, release, err := r.c.loaded(r.env, r.opts, r.nodes, workload.HeavyLoad(r.threads, r.iters))
			if err != nil {
				return nil, err
			}
			defer release()
			slice, rail := core.Rail(m.Sys, r.nodes[0])
			m.RunFor(loadWarmup)
			m.Board(slice).SampleAll()
			m.RunFor(loadWindow)
			loaded := m.Board(slice).SampleAll().OutputW[rail]
			idle, releaseIdle, err := r.env.Checkout(r.c.Spec.Grid.SlicesX, r.c.Spec.Grid.SlicesY, r.opts)
			if err != nil {
				return nil, err
			}
			defer releaseIdle()
			idle.RunFor(loadWindow)
			f := r.c.freqMHz(r.p)
			return []float64{
				f, core.CoresPerSupply * energy.CorePowerActive(f), loaded,
				core.CoresPerSupply * energy.CorePowerIdle(f), idle.Board(slice).SampleAll().OutputW[rail],
			}, nil
		},
		cols: []Col{
			col("mhz", "MHz", "MHz", whole), col("model_rail_power", "W", "P active (model)", mW0),
			col("rail_power", "W", "P active (sim)", mW0), col("model_idle_power", "W", "P idle (model)", mW0),
			col("idle_power", "W", "P idle (sim)", mW0),
		},
		label: notClock,
		summary: func(s Spec, points []Point) []Point {
			if !s.clockSweep() {
				return nil
			}
			xs, ys := make([]float64, len(points)), make([]float64, len(points))
			for i, p := range points {
				xs[i], ys[i] = p.Value("mhz"), p.Value("rail_power")/core.CoresPerSupply*1e3
			}
			slope, intercept, r2, err := metrics.LinearFit(xs, ys)
			if err != nil {
				return nil
			}
			return []Point{{Label: "(fit)", Cols: []Col{
				{Name: "slope", Unit: "mW/MHz", Value: slope, format: fixed("%.3f", 0)},
				{Name: "intercept", Unit: "mW", Value: intercept, format: fixed("%.1f", 0)},
				{Name: "r2", Value: r2, format: fixed("%.5f", 0)},
			}}}
		},
		extra: func(fit Point) []string {
			return []string{fit.Label, fmt.Sprintf("Pc = %.1f + %.3f f", fit.Value("intercept"), fit.Value("slope")),
				fmt.Sprintf("r2 = %.5f", fit.Value("r2")), "paper: 46 + 0.30 f"}
		},
	},
	// Fig. 2: the energy report's wedges per node over the window.
	"budget": {
		on:    []string{"load"},
		iters: true,
		run: func(r *reading) ([]float64, error) {
			m, release, err := r.c.loaded(r.env, r.opts, r.nodes, workload.HeavyLoad(r.threads, r.iters))
			if err != nil {
				return nil, err
			}
			defer release()
			m.RunFor(loadWarmup)
			r0 := m.Report()
			m.RunFor(budgetWindow)
			r1 := m.Report()
			window := (r1.Elapsed - r0.Elapsed).Seconds()
			perNode := func(j0, j1 float64) float64 { return (j1 - j0) / window / float64(m.CoreCount()) }
			compute, background := perNode(r0.ComputationJ, r1.ComputationJ), perNode(r0.BackgroundJ, r1.BackgroundJ)
			conversion, support := perNode(r0.ConversionJ, r1.ConversionJ), perNode(r0.SupportJ, r1.SupportJ)
			link := perNode(r0.LinkJ, r1.LinkJ)
			return []float64{
				compute, background, conversion, support, link, conversion + support + link,
				compute + background + conversion + support + link,
			}, nil
		},
		cols: []Col{
			col("compute", "W", fmt.Sprintf("computation & memory ops|%.0f mW (30%%)", paperBudget.ComputationW*1e3), mW0),
			col("background", "W", fmt.Sprintf("static + network interface|%.0f mW (48%%)", (paperBudget.StaticW+paperBudget.NetworkInterfaceW)*1e3), mW0),
			col("conversion", "W", "", mW0), col("support", "W", "", mW0), col("link", "W", "", mW0),
			col("overhead", "W", fmt.Sprintf("DC-DC & I/O + other|%.0f mW (22%%)", (paperBudget.ConversionIOW+paperBudget.OtherW)*1e3), mW0),
			col("node", "W", fmt.Sprintf("total per node|%.0f mW", paperBudget.TotalW()*1e3), mW0),
		},
		lead:   []string{"component", "paper"},
		single: "simulated",
	},
	// The nOS getid/dbg/tend image network-booted onto the placement
	// through the grid's bridge at the point's operating point: the image
	// bytes streamed and the boot time.
	"boot_cost": {
		on: []string{"load"},
		check: func(s Spec, _ topo.System) error {
			for i, ax := range s.Sweep {
				if ax.Param == "threads" && ax.kind() == "ints" {
					return badf("sweep[%d]: threads axis does not apply to boot_cost, whose program is fixed", i)
				}
			}
			return nil
		},
		run: func(r *reading) ([]float64, error) {
			image := xs1.MustAssemble("getid r0\ndbg r0\ntend\n")
			progs := make([]progAt, len(r.nodes))
			for i, n := range r.nodes {
				progs[i] = progAt{n, image}
			}
			m, st, release, err := r.c.bootedMachine(r.env, r.p, "", progs, nil)
			if err != nil {
				return nil, err
			}
			defer release()
			if err := m.Run(100 * sim.Millisecond); err != nil {
				return nil, specFault(r.p.Label, err)
			}
			return []float64{float64(st.ImageBytes), st.Elapsed.Seconds()}, nil
		},
		cols:  []Col{col("image_bytes", "B", "image bytes", whole), col("elapsed", "s", "boot time", span)},
		label: severalPoints,
	},
	// Section II: slice 0's daughter-board under HeavyLoad(threads,
	// adcIters) on the nodes, at its limits — a trace of every channel at
	// 1 MS/s (whose mean input power the point reports), one channel at
	// 2 MS/s, and an over-rate request that must be refused. A limit the
	// board does not keep fails the run, so every point that renders
	// passed all three.
	"adc_rates": {
		on: []string{"load"},
		run: func(r *reading) ([]float64, error) {
			m, release, err := r.c.loaded(r.env, r.opts, r.nodes, workload.HeavyLoad(r.threads, adcIters))
			if err != nil {
				return nil, err
			}
			defer release()
			board := m.Board(0)
			m.RunFor(20 * sim.Microsecond)
			board.SampleAll()
			all, err := board.StartTrace(power.MaxAllChannelHz, adcSamples)
			if err != nil {
				return nil, err
			}
			m.RunFor(250 * sim.Microsecond)
			if len(all.Samples) != adcSamples {
				return nil, fmt.Errorf("%s: all-channel trace collected %d samples, want %d", r.p.Label, len(all.Samples), adcSamples)
			}
			single, err := power.NewBoard(m.K, m.Supplies(0)[:1])
			if err != nil {
				return nil, err
			}
			one, err := single.StartTrace(power.MaxSingleChannelHz, adcSamples)
			if err != nil {
				return nil, err
			}
			m.RunFor(150 * sim.Microsecond)
			if len(one.Samples) != adcSamples {
				return nil, fmt.Errorf("%s: single-channel trace collected %d samples, want %d", r.p.Label, len(one.Samples), adcSamples)
			}
			if _, err := board.StartTrace(power.MaxAllChannelHz*1.5, 4); err == nil {
				return nil, fmt.Errorf("%s: over-rate all-channel trace accepted", r.p.Label)
			}
			return []float64{all.MeanInputW(), 1, 1, 1}, nil
		},
		cols: []Col{
			col("input_power", "W", "", fixed("%.2f W", 0)),
			col("all_channels", "", "all channels @ "+report.FormatSI(power.MaxAllChannelHz)+"S/s", ok),
			col("single_channel", "", "single channel @ "+report.FormatSI(power.MaxSingleChannelHz)+"S/s", ok),
			col("over_rate_rejected", "", "over-rate trace rejected", ok),
		},
		lead:   []string{"check"},
		single: "result",
	},
}

// measureOf looks up the spec's measure and holds it to the structure.
func (s Spec) measureOf() (*measure, error) {
	ms, ok := measureTable[s.Measure]
	if ok && slices.Contains(ms.on, s.Workload.Structure) {
		return ms, nil
	}
	var have []string
	for name, m := range measureTable {
		if slices.Contains(m.on, s.Workload.Structure) {
			have = append(have, name)
		}
	}
	slices.Sort(have)
	if !ok {
		return nil, badf("measure: unknown measure %q (have %s)", s.Measure, strings.Join(have, ", "))
	}
	return nil, badf("measure: %q does not apply to structure %q (have %s)", s.Measure, s.Workload.Structure, strings.Join(have, ", "))
}

// checkTable refuses table fields the measure's table never reads at
// this spec.
func (ms *measure) checkTable(s Spec, points int) error {
	t := s.Table
	if t == nil {
		return nil
	}
	if t.Label != "" && (ms.label == nil || !ms.label(s, points)) {
		return badf("table.label: the %s table has no label column here", s.Measure)
	}
	if ms.value == "" && (t.Value != "" || t.Ratio != "") {
		return badf("table.value/ratio: the %s table has no value column", s.Measure)
	}
	return nil
}

// Render formats a Result under the spec's measure and table options.
func (c *Compiled) Render(res *Result) *report.Table {
	s, ms := c.Spec, c.ms
	tb := Table{Title: "scenario: " + s.Name, Label: "point"}
	if t := s.Table; t != nil {
		tb.Value, tb.Ratio = t.Value, t.Ratio
		if t.Title != "" {
			tb.Title = t.Title
		}
		if t.Label != "" {
			tb.Label = t.Label
		}
	}
	if ms.lead != nil {
		heads := slices.Clone(ms.lead)
		if len(res.Points) == 1 {
			heads = append(heads, ms.single)
		} else {
			for _, p := range res.Points {
				heads = append(heads, p.Label)
			}
		}
		t := report.NewTable(tb.Title, heads...)
		for i, cl := range ms.cols {
			if cl.head != "" {
				row := strings.Split(cl.head, "|")
				for _, p := range res.Points {
					row = append(row, p.Cols[i].Cell())
				}
				t.AddRow(row...)
			}
		}
		return t
	}
	var heads []string
	label := ms.labelHead != "" || ms.label != nil && ms.label(s, len(res.Points))
	if label {
		heads = append(heads, cmp.Or(ms.labelHead, tb.Label))
	}
	for _, cl := range ms.cols {
		switch {
		case cl.head == "":
		case cl.Name == ms.value && tb.Value != "":
			heads = append(heads, tb.Value)
		default:
			heads = append(heads, strings.ReplaceAll(cl.head, "{vdd}", strconv.FormatFloat(s.Operating.VDD, 'g', -1, 64)))
		}
	}
	if tb.Ratio != "" {
		heads = append(heads, tb.Ratio)
	}
	t := report.NewTable(tb.Title, heads...)
	for _, p := range res.Points {
		var row []string
		if label {
			row = append(row, p.Label)
		}
		for _, cl := range p.Cols[:len(ms.cols)] {
			if cl.head != "" {
				row = append(row, cl.Cell())
			}
		}
		if tb.Ratio != "" {
			// A flow-less first point (e.g. an idle variant) has zero
			// goodput; render "-" rather than NaN/Inf ratios.
			ratio := "-"
			if base := res.Points[0].Value(ms.value); base > 0 {
				ratio = fmt.Sprintf("%.2fx", p.Value(ms.value)/base)
			}
			row = append(row, ratio)
		}
		t.AddRow(row...)
	}
	for _, p := range res.Extra {
		t.AddRow(ms.extra(p)...)
	}
	return t
}
