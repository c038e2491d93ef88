// Package experiments regenerates every table and figure of the paper
// from the simulator: each function runs the corresponding workload,
// returns structured results carrying both the published value and the
// measured one, and renders itself as a report table. The root-level
// benchmark harness and cmd/swallow-tables are thin wrappers around
// this package; EXPERIMENTS.md records the comparisons.
package experiments

import (
	"fmt"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/harness/sweep"
	"swallow/internal/metrics"
	"swallow/internal/noc"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// TableIRow is one link class of Table I, published and measured.
type TableIRow struct {
	Class energy.LinkClass
	// Published columns.
	RateMbps, MaxPowerMW, PJPerBit float64
	// Measured from a saturating stream over the simulated link:
	// MeasuredPowerMW is the link's energy over its wire-busy time (the
	// saturated power the max-power column states), and Utilization the
	// busy share of the flow's own window, start to last arrival.
	MeasuredPJPerBit, MeasuredPowerMW, Utilization float64
}

// TableI saturates one link of each physical class and measures
// energy-per-bit and link power.
func TableI(env *core.Env) ([]TableIRow, error) {
	m, release, err := env.Checkout(2, 1, core.Options{})
	if err != nil {
		return nil, err
	}
	defer release()
	k, net := m.K, m.Net
	type route struct {
		src, dst topo.NodeID
	}
	routes := map[energy.LinkClass]route{
		energy.LinkOnChip:          {topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 0, topo.LayerH)},
		energy.LinkBoardVertical:   {topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 1, topo.LayerV)},
		energy.LinkBoardHorizontal: {topo.MakeNodeID(0, 0, topo.LayerH), topo.MakeNodeID(1, 0, topo.LayerH)},
		energy.LinkOffBoard:        {topo.MakeNodeID(1, 0, topo.LayerH), topo.MakeNodeID(2, 0, topo.LayerH)},
	}
	var rows []TableIRow
	for class := energy.LinkClass(0); int(class) < energy.NumLinkClasses; class++ {
		r := routes[class]
		before := net.StatsByClass()[class]
		f := &workload.Flow{
			Src:    net.Switch(r.src).ChanEnd(0),
			Dst:    net.Switch(r.dst).ChanEnd(0),
			Tokens: 4096,
		}
		t0 := k.Now()
		if err := workload.RunFlows(k, []*workload.Flow{f}, sim.Second); err != nil {
			return nil, fmt.Errorf("table I %v: %w", class, err)
		}
		after := net.StatsByClass()[class]
		var delta noc.LinkStats
		delta.Add(after)
		delta.Tokens -= before.Tokens
		delta.Bits -= before.Bits
		delta.EnergyJ -= before.EnergyJ
		delta.Busy -= before.Busy
		spec := energy.LinkSpecs[class]
		rows = append(rows, TableIRow{
			Class:            class,
			RateMbps:         spec.DataRateBitsPerSec / 1e6,
			MaxPowerMW:       spec.MaxPowerW * 1e3,
			PJPerBit:         spec.EnergyPerBit() * 1e12,
			MeasuredPJPerBit: delta.EnergyPerBit() * 1e12,
			MeasuredPowerMW:  delta.MeanPowerW(delta.Busy) * 1e3,
			Utilization:      delta.Utilization(f.LastArrival - t0),
		})
	}
	return rows, nil
}

// RenderTableI formats the rows.
func RenderTableI(rows []TableIRow) *report.Table {
	t := report.NewTable("Table I: per-bit energies of Swallow links",
		"link type", "data rate", "max power", "pJ/bit (paper)", "pJ/bit (sim)", "mW (sim)")
	for _, r := range rows {
		t.AddRow(r.Class.String(),
			report.FormatSI(r.RateMbps*1e6)+"bit/s",
			fmt.Sprintf("%.1f mW", r.MaxPowerMW),
			fmt.Sprintf("%.1f", r.PJPerBit),
			fmt.Sprintf("%.1f", r.MeasuredPJPerBit),
			fmt.Sprintf("%.1f", r.MeasuredPowerMW))
	}
	return t
}

// Fig3Point is one frequency of the Fig. 3 sweep.
type Fig3Point struct {
	FreqMHz float64
	// Published model values (Eq. 1 and the idle fit), four cores.
	ModelActive4W, ModelIdle4W float64
	// Measured from simulation: four cores under heavy 4-thread load,
	// and four idle cores, through the supply/ADC chain.
	MeasuredActive4W, MeasuredIdle4W float64
}

// Fig3Frequencies is the sweep grid.
var Fig3Frequencies = []float64{71, 125, 200, 275, 350, 425, 500}

// Fig3 measures power-vs-frequency for a four-core group (one supply
// rail), loaded and idle. Each frequency point builds its own machines
// and runs independently under sweep.Map.
func Fig3(env *core.Env, iters int) ([]Fig3Point, error) {
	return sweep.Map(env.SweepWidth(), Fig3Frequencies, func(_ int, f float64) (Fig3Point, error) {
		cfg := coreCfg(f)
		m, release, err := env.Checkout(1, 1, core.Options{Core: &cfg})
		if err != nil {
			return Fig3Point{}, err
		}
		defer release()
		// Load the four cores of supply group 0 (package rows 0).
		prog := workload.HeavyLoad(4, iters)
		for _, node := range supplyGroupNodes(0) {
			if err := m.Load(node, prog); err != nil {
				return Fig3Point{}, err
			}
		}
		// Warm up into steady state, then measure one window.
		m.RunFor(50 * sim.Microsecond)
		m.Board(0).SampleAll()
		m.RunFor(500 * sim.Microsecond)
		smp := m.Board(0).SampleAll()
		active := smp.OutputW[0]

		// Idle machine at the same frequency.
		mi, releaseIdle, err := env.Checkout(1, 1, core.Options{Core: &cfg})
		if err != nil {
			return Fig3Point{}, err
		}
		defer releaseIdle()
		mi.RunFor(500 * sim.Microsecond)
		smpIdle := mi.Board(0).SampleAll()
		idle := smpIdle.OutputW[0]

		return Fig3Point{
			FreqMHz:          f,
			ModelActive4W:    4 * energy.CorePowerActive(f),
			ModelIdle4W:      4 * energy.CorePowerIdle(f),
			MeasuredActive4W: active,
			MeasuredIdle4W:   idle,
		}, nil
	})
}

// Fig3Fit extracts the Eq. 1 parameters from the measured series: the
// per-core slope (mW/MHz) and intercept (mW).
func Fig3Fit(points []Fig3Point) (slopeMWPerMHz, interceptMW, r2 float64, err error) {
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.FreqMHz)
		ys = append(ys, p.MeasuredActive4W/4*1e3)
	}
	return fit3(xs, ys)
}

func fit3(xs, ys []float64) (float64, float64, float64, error) {
	return metrics.LinearFit(xs, ys)
}

// RenderFig3 formats the sweep.
func RenderFig3(points []Fig3Point) *report.Table {
	t := report.NewTable("Fig. 3: power vs frequency (four cores)",
		"MHz", "P active (model)", "P active (sim)", "P idle (model)", "P idle (sim)")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.0f", p.FreqMHz),
			fmt.Sprintf("%.0f mW", p.ModelActive4W*1e3),
			fmt.Sprintf("%.0f mW", p.MeasuredActive4W*1e3),
			fmt.Sprintf("%.0f mW", p.ModelIdle4W*1e3),
			fmt.Sprintf("%.0f mW", p.MeasuredIdle4W*1e3))
	}
	return t
}

// Fig4Point compares 1 V operation against DVFS at one frequency.
type Fig4Point struct {
	FreqMHz float64
	// PowerAt1VW is the measured single-core loaded power at 1 V.
	PowerAt1VW float64
	// PowerDVFSW is the model's power after scaling to VMin(f).
	PowerDVFSW float64
	// MeasuredDVFSW is the power measured by actually running the core
	// at VDD = VMin(f) (full DVFS, the capability the paper attributes
	// to newer xCORE devices).
	MeasuredDVFSW float64
	// VMin is the minimum stable supply voltage.
	VMin float64
}

// measureLoadedCorePower runs a four-thread heavy load on one core at
// the given operating point and returns its steady-state power.
func measureLoadedCorePower(env *core.Env, cfg xs1.Config, iters int) (float64, error) {
	m, release, err := env.Checkout(1, 1, core.Options{Core: &cfg})
	if err != nil {
		return 0, err
	}
	defer release()
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	if err := m.Load(node, workload.HeavyLoad(4, iters)); err != nil {
		return 0, err
	}
	m.RunFor(50 * sim.Microsecond)
	c := m.Core(node)
	e0 := c.EnergyJ()
	t0 := m.K.Now()
	m.RunFor(500 * sim.Microsecond)
	return (c.EnergyJ() - e0) / (m.K.Now() - t0).Seconds(), nil
}

// Fig4 sweeps the DVFS comparison for one core with four active
// threads: at 1 V, and re-run at VDD = VMin(f). Frequencies run
// independently under sweep.Map.
func Fig4(env *core.Env, iters int) ([]Fig4Point, error) {
	return sweep.Map(env.SweepWidth(), Fig3Frequencies, func(_ int, f float64) (Fig4Point, error) {
		at1v, err := measureLoadedCorePower(env, xs1.Config{FreqMHz: f, VDD: 1.0}, iters)
		if err != nil {
			return Fig4Point{}, err
		}
		scaled, err := measureLoadedCorePower(env, xs1.Config{FreqMHz: f, VDD: energy.VMin(f)}, iters)
		if err != nil {
			return Fig4Point{}, err
		}
		return Fig4Point{
			FreqMHz:       f,
			PowerAt1VW:    at1v,
			PowerDVFSW:    energy.CorePowerDVFS(f, 4),
			MeasuredDVFSW: scaled,
			VMin:          energy.VMin(f),
		}, nil
	})
}

// RenderFig4 formats the sweep.
func RenderFig4(points []Fig4Point) *report.Table {
	t := report.NewTable("Fig. 4: voltage + frequency scaling (one core, four threads)",
		"MHz", "Vmin", "P at 1V (sim)", "P DVFS (model)", "P DVFS (sim)", "saving")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%.0f", p.FreqMHz),
			fmt.Sprintf("%.2f V", p.VMin),
			fmt.Sprintf("%.0f mW", p.PowerAt1VW*1e3),
			fmt.Sprintf("%.0f mW", p.PowerDVFSW*1e3),
			fmt.Sprintf("%.0f mW", p.MeasuredDVFSW*1e3),
			fmt.Sprintf("%.0f%%", 100*(1-p.MeasuredDVFSW/p.PowerAt1VW)))
	}
	return t
}

// Fig2Result compares the published per-node budget with the simulated
// decomposition.
type Fig2Result struct {
	Published energy.NodeBudget
	// Simulated wedge estimates, per node, watts.
	ComputationW, BackgroundW, ConversionW, SupportW, LinkW float64
	// NodeTotalW is the simulated per-node wall power.
	NodeTotalW float64
}

// Fig2 loads a full slice and decomposes its wall power per node.
func Fig2(env *core.Env, iters int) (Fig2Result, error) {
	var res Fig2Result
	res.Published = energy.PaperNodeBudget
	m, release, err := env.Checkout(1, 1, core.Options{})
	if err != nil {
		return res, err
	}
	defer release()
	if err := m.LoadAll(workload.HeavyLoad(4, iters)); err != nil {
		return res, err
	}
	m.RunFor(50 * sim.Microsecond)
	r0 := m.Report()
	m.RunFor(sim.Millisecond)
	r1 := m.Report()
	window := (r1.Elapsed - r0.Elapsed).Seconds()
	perNode := func(j0, j1 float64) float64 {
		return (j1 - j0) / window / float64(topo.CoresPerSlice)
	}
	res.ComputationW = perNode(r0.ComputationJ, r1.ComputationJ)
	res.BackgroundW = perNode(r0.BackgroundJ, r1.BackgroundJ)
	res.ConversionW = perNode(r0.ConversionJ, r1.ConversionJ)
	res.SupportW = perNode(r0.SupportJ, r1.SupportJ)
	res.LinkW = perNode(r0.LinkJ, r1.LinkJ)
	res.NodeTotalW = res.ComputationW + res.BackgroundW + res.ConversionW + res.SupportW + res.LinkW
	return res, nil
}

// RenderFig2 formats the comparison. The paper's "static" and "network
// interface" wedges jointly correspond to the simulator's background
// (static + idle clock) energy.
func RenderFig2(r Fig2Result) *report.Table {
	t := report.NewTable("Fig. 2: per-node power budget (under load)",
		"component", "paper", "simulated")
	p := r.Published
	t.AddRow("computation & memory ops", fmt.Sprintf("%.0f mW (30%%)", p.ComputationW*1e3),
		fmt.Sprintf("%.0f mW", r.ComputationW*1e3))
	t.AddRow("static + network interface", fmt.Sprintf("%.0f mW (48%%)", (p.StaticW+p.NetworkInterfaceW)*1e3),
		fmt.Sprintf("%.0f mW", r.BackgroundW*1e3))
	t.AddRow("DC-DC & I/O + other", fmt.Sprintf("%.0f mW (22%%)", (p.ConversionIOW+p.OtherW)*1e3),
		fmt.Sprintf("%.0f mW", (r.ConversionW+r.SupportW+r.LinkW)*1e3))
	t.AddRow("total per node", fmt.Sprintf("%.0f mW", p.TotalW()*1e3),
		fmt.Sprintf("%.0f mW", r.NodeTotalW*1e3))
	return t
}

// coreCfg builds a core config at frequency f.
func coreCfg(f float64) xs1.Config {
	return xs1.Config{FreqMHz: f, VDD: 1.0}
}

// supplyGroupNodes lists the four cores of supply group g on slice
// (0,0), matching Machine's wiring order.
func supplyGroupNodes(g int) []topo.NodeID {
	var all []topo.NodeID
	for py := 0; py < topo.PackagesPerSliceY; py++ {
		for px := 0; px < topo.PackagesPerSliceX; px++ {
			all = append(all,
				topo.MakeNodeID(px, py, topo.LayerV),
				topo.MakeNodeID(px, py, topo.LayerH))
		}
	}
	return all[g*4 : g*4+4]
}
