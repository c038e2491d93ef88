package experiments

import (
	"fmt"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/harness/sweep"
	"swallow/internal/metrics"
	"swallow/internal/noc"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
)

// LatencyRow is one placement of the Section V-C latency experiments.
type LatencyRow struct {
	Name string
	// PaperNS is the published figure (0 when the paper gives only an
	// instruction count).
	PaperNS float64
	// PaperInstrs is the published sending-thread instruction
	// equivalent (0 when only nanoseconds are given).
	PaperInstrs float64
	// MeasuredNS is the simulated one-way latency.
	MeasuredNS float64
	// MeasuredInstrs converts the measured latency to single-thread
	// instruction times (8 ns at 500 MHz).
	MeasuredInstrs float64
}

// instrTimeNS is one single-thread instruction at 500 MHz (Eq. 2:
// f/max(4,1) = 125 MIPS -> 8 ns).
const instrTimeNS = 8.0

// wordLatency runs a ping-pong between two nodes at max link rates and
// returns the one-way word latency (half the measured round trip,
// which includes both ends' instruction overhead as the paper's
// software-measured figures do).
func wordLatency(env *core.Env, a, b topo.NodeID) (sim.Time, error) {
	cfg := noc.MaxRateConfig()
	m, release, err := env.Checkout(2, 1, core.Options{Noc: &cfg})
	if err != nil {
		return 0, err
	}
	defer release()
	const rounds = 32
	if err := m.Load(b, workload.PingRx(noc.MakeChanEndID(uint16(a), 0), rounds)); err != nil {
		return 0, err
	}
	if err := m.Load(a, workload.PingTx(noc.MakeChanEndID(uint16(b), 0), rounds)); err != nil {
		return 0, err
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		return 0, err
	}
	trace := m.Core(a).DebugTrace
	if len(trace) != rounds {
		return 0, fmt.Errorf("latency: %d rounds recorded", len(trace))
	}
	// Discard the first round (route opening) and average the rest;
	// each trace entry is a round trip in 10 ns reference ticks.
	var sum float64
	for _, rtt := range trace[1:] {
		sum += float64(rtt) * 10 / 2 // one way, ns
	}
	mean := sum / float64(rounds-1)
	return sim.Time(mean * float64(sim.Nanosecond)), nil
}

// latencyPlacement is one Section V-C source/destination pairing.
type latencyPlacement struct {
	name        string
	a, b        topo.NodeID
	paperNS     float64
	paperInstrs float64
}

// latencyPlacements is the canonical Section V-C placement list, in
// table order.
func latencyPlacements() []latencyPlacement {
	return []latencyPlacement{
		{"core-local word", topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 0, topo.LayerV), 50, 6},
		{"in-package word", topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 0, topo.LayerH), 0, 40},
		{"cross-package word", topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 1, topo.LayerV), 360, 45},
		{"cross-board word", topo.MakeNodeID(0, 0, topo.LayerH), topo.MakeNodeID(2, 0, topo.LayerH), 0, 0},
	}
}

// LatencyPlacementNames lists the canonical placement names, in table
// order — the values LatenciesFor accepts.
func LatencyPlacementNames() []string {
	ps := latencyPlacements()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// Latencies reproduces the full Section V-C latency table.
func Latencies(env *core.Env) ([]LatencyRow, error) { return LatenciesFor(env, nil) }

// LatenciesFor measures the named subset of the Section V-C
// placements, in canonical table order regardless of the order names
// are given in. Nil or empty means every placement; an unknown name is
// an error.
func LatenciesFor(env *core.Env, names []string) ([]LatencyRow, error) {
	all := latencyPlacements()
	placements := all
	if len(names) > 0 {
		want := make(map[string]bool, len(names))
		for _, n := range names {
			found := false
			for _, p := range all {
				if p.name == n {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: latency: unknown placement %q (have %v)",
					harness.ErrBadConfig, n, LatencyPlacementNames())
			}
			want[n] = true
		}
		placements = placements[:0:0]
		for _, p := range all {
			if want[p.name] {
				placements = append(placements, p)
			}
		}
	}
	return sweep.Map(env.SweepWidth(), placements, func(_ int, p latencyPlacement) (LatencyRow, error) {
		var lat sim.Time
		var err error
		if p.a == p.b {
			lat, err = coreLocalWordLatency(env)
		} else {
			lat, err = wordLatency(env, p.a, p.b)
		}
		if err != nil {
			return LatencyRow{}, fmt.Errorf("%s: %w", p.name, err)
		}
		ns := lat.Nanoseconds()
		return LatencyRow{
			Name:           p.name,
			PaperNS:        p.paperNS,
			PaperInstrs:    p.paperInstrs,
			MeasuredNS:     ns,
			MeasuredInstrs: ns / instrTimeNS,
		}, nil
	})
}

// coreLocalWordLatency ping-pongs between two threads of one core.
func coreLocalWordLatency(env *core.Env) (sim.Time, error) {
	cfg := noc.MaxRateConfig()
	m, release, err := env.Checkout(1, 1, core.Options{Noc: &cfg})
	if err != nil {
		return 0, err
	}
	defer release()
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	// Thread 0 ping-pongs with a sibling thread through two channel
	// ends on the same core (workload.LocalPingPong wires both
	// directions before starting the peer).
	p := workload.LocalPingPong(
		noc.MakeChanEndID(uint16(node), 0),
		noc.MakeChanEndID(uint16(node), 1), 33)
	if err := m.Load(node, p); err != nil {
		return 0, err
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		return 0, err
	}
	trace := m.Core(node).DebugTrace
	if len(trace) < 2 {
		return 0, fmt.Errorf("core-local: %d rounds", len(trace))
	}
	var sum float64
	for _, rtt := range trace[1:] {
		sum += float64(rtt) * 10 / 2
	}
	mean := sum / float64(len(trace)-1)
	return sim.Time(mean * float64(sim.Nanosecond)), nil
}

// RenderLatencies formats the table.
func RenderLatencies(rows []LatencyRow) *report.Table {
	t := report.NewTable("Section V-C: core-to-core word latency",
		"placement", "paper ns", "paper instrs", "sim ns", "sim instrs")
	for _, r := range rows {
		pns, pin := "-", "-"
		if r.PaperNS > 0 {
			pns = fmt.Sprintf("%.0f", r.PaperNS)
		}
		if r.PaperInstrs > 0 {
			pin = fmt.Sprintf("%.0f", r.PaperInstrs)
		}
		t.AddRow(r.Name, pns, pin,
			fmt.Sprintf("%.0f", r.MeasuredNS),
			fmt.Sprintf("%.0f", r.MeasuredInstrs))
	}
	return t
}

// GoodputPoint is one payload size of the Section V-B overhead sweep.
type GoodputPoint struct {
	PayloadBytes int
	// Fraction is goodput over link rate.
	Fraction float64
	// Analytic is n/(n+4): three header tokens plus END per packet.
	Analytic float64
}

// GoodputSweep measures packetised goodput across payload sizes, one
// independent machine per point under sweep.Map (flows are
// host-driven, so the cores stay idle and schedule nothing).
func GoodputSweep(env *core.Env, payloads []int) ([]GoodputPoint, error) {
	return sweep.Map(env.SweepWidth(), payloads, func(_ int, n int) (GoodputPoint, error) {
		m, release, err := env.Checkout(1, 1, core.Options{})
		if err != nil {
			return GoodputPoint{}, err
		}
		defer release()
		net := m.Net
		f := &workload.Flow{
			Src:          net.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0),
			Dst:          net.Switch(topo.MakeNodeID(0, 1, topo.LayerV)).ChanEnd(0),
			Tokens:       n * 120,
			PacketTokens: n,
		}
		if err := workload.RunFlows(m.K, []*workload.Flow{f}, sim.Second); err != nil {
			return GoodputPoint{}, err
		}
		rate := noc.TimingExternalOperating.BitRate()
		return GoodputPoint{
			PayloadBytes: n,
			Fraction:     f.GoodputBitsPerSec() / rate,
			Analytic:     float64(n) / float64(n+noc.HeaderTokens+1),
		}, nil
	})
}

// RenderGoodput formats the sweep.
func RenderGoodput(points []GoodputPoint) *report.Table {
	t := report.NewTable("Section V-B: packet overhead (goodput / link rate)",
		"payload bytes", "analytic n/(n+4)", "simulated")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.PayloadBytes),
			fmt.Sprintf("%.3f", p.Analytic),
			fmt.Sprintf("%.3f", p.Fraction))
	}
	return t
}

// ECRow is one Section V-D analysis point with its measured
// communication rate.
type ECRow struct {
	Name string
	// PaperEC is the printed ratio.
	PaperEC float64
	// EBps is the analytic execution rate.
	EBps float64
	// MeasuredCBps is the communication rate measured by saturating
	// the resource.
	MeasuredCBps float64
	// MeasuredEC uses the measured C.
	MeasuredEC float64
}

// ecRegime is one Section V-D communication regime: its published
// ratio, its execution-rate multiplier (cores driving the transfer)
// and the saturating flow set that measures its C. A nil build means
// the regime is issue-limited and C = E analytically.
type ecRegime struct {
	name  string
	paper float64
	eMult float64
	build func(net *noc.Network) []*workload.Flow
}

// ecRegimes lists the Section V-D regimes in table order.
func ecRegimes() []ecRegime {
	return []ecRegime{
		// Core-local: limited by instruction issue, not the network; the
		// paper takes C = E = 16 Gbit/s.
		{name: "core-local", paper: 1, eMult: 1},
		// Package-internal: four links between the two cores of a package.
		{name: "package-internal (4 links)", paper: 16, eMult: 1,
			build: func(net *noc.Network) []*workload.Flow {
				var fs []*workload.Flow
				for i := 0; i < 4; i++ {
					fs = append(fs, &workload.Flow{
						Src:    net.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(uint8(i)),
						Dst:    net.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(uint8(i)),
						Tokens: 4000,
					})
				}
				return fs
			}},
		// External: the paper counts four external links of 62.5 Mbit/s
		// as the chip's external capacity. Four distinct external links
		// leave package (0,1): V north, V south, H east from both cores
		// of column 0 row 1.
		{name: "external links (4 x 62.5M)", paper: 64, eMult: 1,
			build: func(net *noc.Network) []*workload.Flow {
				targets := []struct{ src, dst topo.NodeID }{
					{topo.MakeNodeID(0, 1, topo.LayerV), topo.MakeNodeID(0, 0, topo.LayerV)},
					{topo.MakeNodeID(0, 1, topo.LayerV), topo.MakeNodeID(0, 2, topo.LayerV)},
					{topo.MakeNodeID(0, 1, topo.LayerH), topo.MakeNodeID(1, 1, topo.LayerH)},
					{topo.MakeNodeID(1, 1, topo.LayerH), topo.MakeNodeID(0, 1, topo.LayerH)},
				}
				var fs []*workload.Flow
				for i, t := range targets {
					fs = append(fs, &workload.Flow{
						Src:    net.Switch(t.src).ChanEnd(uint8(i)),
						Dst:    net.Switch(t.dst).ChanEnd(uint8(i)),
						Tokens: 2000,
					})
				}
				return fs
			}},
		// Four threads contending one external link: the four packetised
		// streams interleave over the single South link, so the measured
		// C is that link's goodput and E is the full four-thread rate
		// (paper: EC = 16 Gbit/s / 62.5 Mbit/s = 256).
		{name: "one external link, 4 threads contending", paper: 256, eMult: 1,
			build: func(net *noc.Network) []*workload.Flow {
				var fs []*workload.Flow
				for i := 0; i < 4; i++ {
					fs = append(fs, &workload.Flow{
						Src:          net.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(uint8(i)),
						Dst:          net.Switch(topo.MakeNodeID(0, 1, topo.LayerV)).ChanEnd(uint8(i)),
						Tokens:       2240,
						PacketTokens: 112,
					})
				}
				return fs
			}},
		// Slice bisection: eight flows, one per left-half core pair,
		// crossing the vertical cut; all eight cores execute.
		{name: "slice bisection (8 cores)", paper: 512, eMult: 8,
			build: func(net *noc.Network) []*workload.Flow {
				var fs []*workload.Flow
				i := 0
				for y := 0; y < 4; y++ {
					for _, l := range []topo.Layer{topo.LayerV, topo.LayerH} {
						fs = append(fs, &workload.Flow{
							Src:          net.Switch(topo.MakeNodeID(0, y, l)).ChanEnd(uint8(i % 4)),
							Dst:          net.Switch(topo.MakeNodeID(1, y, l)).ChanEnd(uint8(i % 4)),
							Tokens:       2400,
							PacketTokens: 120,
						})
						i++
					}
				}
				return fs
			}},
	}
}

// ECRatios measures each Section V-D communication regime and forms
// the EC ratios with Eq. 2's execution rates. Regimes saturate
// independent networks, so they run under sweep.Map.
func ECRatios(env *core.Env) ([]ECRow, error) {
	e := metrics.ExecutionBitRate(metrics.IPSCore(500e6, 4)) // 16 Gbit/s
	return sweep.Map(env.SweepWidth(), ecRegimes(), func(_ int, r ecRegime) (ECRow, error) {
		c := r.eMult * e // issue-limited regimes: C = E
		if r.build != nil {
			m, release, err := env.Checkout(1, 1, core.Options{})
			if err != nil {
				return ECRow{}, err
			}
			defer release()
			flows := r.build(m.Net)
			if err := workload.RunFlows(m.K, flows, sim.Second); err != nil {
				return ECRow{}, err
			}
			c = workload.AggregateGoodput(flows)
		}
		return ECRow{
			Name: r.name, PaperEC: r.paper, EBps: r.eMult * e,
			MeasuredCBps: c, MeasuredEC: metrics.EC(r.eMult*e, c),
		}, nil
	})
}

// RenderEC formats the table.
func RenderEC(rows []ECRow) *report.Table {
	t := report.NewTable("Section V-D: execution/communication ratios",
		"regime", "E bit/s", "C bit/s (sim)", "EC (sim)", "EC (paper)")
	for _, r := range rows {
		t.AddRow(r.Name,
			report.FormatSI(r.EBps),
			report.FormatSI(r.MeasuredCBps),
			fmt.Sprintf("%.0f", r.MeasuredEC),
			fmt.Sprintf("%.0f", r.PaperEC))
	}
	return t
}

// Eq2Point is one thread count of the Eq. 2 validation.
type Eq2Point struct {
	Threads int
	// ModelIPS is Eq. 2's aggregate rate.
	ModelIPS float64
	// MeasuredIPS comes from the pipeline simulation.
	MeasuredIPS float64
}

// Eq2 measures aggregate instruction rate against thread count, one
// independent machine per count under sweep.Map.
func Eq2(env *core.Env, iters int) ([]Eq2Point, error) {
	return sweep.Map(env.SweepWidth(), []int{1, 2, 3, 4, 5, 6, 7, 8}, func(_ int, nt int) (Eq2Point, error) {
		m, release, err := env.Checkout(1, 1, core.Options{})
		if err != nil {
			return Eq2Point{}, err
		}
		defer release()
		node := topo.MakeNodeID(0, 0, topo.LayerV)
		if err := m.Load(node, workload.BusyLoop(nt, iters)); err != nil {
			return Eq2Point{}, err
		}
		if err := m.Run(sim.Second); err != nil {
			return Eq2Point{}, err
		}
		c := m.Core(node)
		ips := float64(c.InstrCount) / c.LastIssue.Seconds()
		return Eq2Point{
			Threads:     nt,
			ModelIPS:    metrics.IPSCore(500e6, nt),
			MeasuredIPS: ips,
		}, nil
	})
}

// RenderEq2 formats the series.
func RenderEq2(points []Eq2Point) *report.Table {
	t := report.NewTable("Eq. 2: aggregate throughput vs active threads (500 MHz)",
		"threads", "model MIPS", "simulated MIPS")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Threads),
			fmt.Sprintf("%.1f", p.ModelIPS/1e6),
			fmt.Sprintf("%.1f", p.MeasuredIPS/1e6))
	}
	return t
}

// AblationRouting compares the adaptive policy against strict
// vertical-first ordering: mean path length and layer transitions over
// all node pairs of a 2x2-slice system.
type AblationRoutingResult struct {
	Policy          topo.RoutePolicy
	MeanPathLength  float64
	MeanTransitions float64
	MaxTransitions  int
}

// AblationRouting runs the route-policy ablation.
func AblationRouting() ([]AblationRoutingResult, error) {
	sys := topo.MustSystem(2, 2)
	nodes := sys.Nodes()
	var out []AblationRoutingResult
	for _, pol := range []topo.RoutePolicy{topo.PolicyAdaptive, topo.PolicyStrictVerticalFirst} {
		var res AblationRoutingResult
		res.Policy = pol
		pairs := 0
		for _, a := range nodes {
			for _, b := range nodes {
				if a == b {
					continue
				}
				hops, err := sys.Route(a, b, pol)
				if err != nil {
					return nil, err
				}
				res.MeanPathLength += float64(topo.PathLength(hops))
				tr := topo.LayerTransitions(hops)
				res.MeanTransitions += float64(tr)
				if tr > res.MaxTransitions {
					res.MaxTransitions = tr
				}
				pairs++
			}
		}
		res.MeanPathLength /= float64(pairs)
		res.MeanTransitions /= float64(pairs)
		out = append(out, res)
	}
	return out, nil
}

// AblationLinks measures aggregate package-internal throughput as the
// enabled internal link count varies (Section V-B link aggregation).
// Each link count saturates its own network under sweep.Map.
func AblationLinks(env *core.Env) (map[int]float64, error) {
	rates, err := sweep.Map(env.SweepWidth(), []int{1, 2, 3, 4}, func(_ int, links int) (float64, error) {
		cfg := noc.OperatingConfig()
		cfg.InternalLinks = links
		// The enabled-link count is structural, so each count is its own
		// pool shape.
		m, release, err := env.Checkout(1, 1, core.Options{Noc: &cfg})
		if err != nil {
			return 0, err
		}
		defer release()
		net := m.Net
		var fs []*workload.Flow
		for i := 0; i < 4; i++ {
			fs = append(fs, &workload.Flow{
				Src:          net.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(uint8(i)),
				Dst:          net.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(uint8(i)),
				Tokens:       3000,
				PacketTokens: 30,
			})
		}
		if err := workload.RunFlows(m.K, fs, sim.Second); err != nil {
			return 0, err
		}
		return workload.AggregateGoodput(fs), nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(rates))
	for i, r := range rates {
		out[i+1] = r
	}
	return out, nil
}

// RenderAblationLinks formats the link-aggregation sweep in link-count
// order.
func RenderAblationLinks(res map[int]float64) *report.Table {
	t := report.NewTable("Ablation: internal link aggregation (4 flows)",
		"enabled links", "aggregate goodput", "vs 1 link")
	for links := 1; links <= 4; links++ {
		t.AddRow(fmt.Sprintf("%d", links),
			report.FormatSI(res[links])+"bit/s",
			fmt.Sprintf("%.2fx", res[links]/res[1]))
	}
	return t
}

// RenderAblationRouting formats the route-policy ablation.
func RenderAblationRouting(res []AblationRoutingResult) *report.Table {
	t := report.NewTable("Ablation: route policy over all node pairs (2x2 slices)",
		"policy", "mean path length", "mean layer transitions", "max transitions")
	for _, r := range res {
		t.AddRow(r.Policy.String(),
			fmt.Sprintf("%.2f", r.MeanPathLength),
			fmt.Sprintf("%.2f", r.MeanTransitions),
			fmt.Sprintf("%d", r.MaxTransitions))
	}
	return t
}

// SystemScale is the Fig. 1 / Section III-A headline: the assembled
// machine's scale, throughput and power.
type SystemScale struct {
	Slices, Cores int
	PeakGIPS      float64
	// IdleWallW is measured; LoadedWallW extrapolates the measured
	// per-slice loaded figure.
	IdleWallW, LoadedWallW float64
	// PaperLoadedW is the published 134 W.
	PaperLoadedW float64
}

// Scale assembles the paper's 30-slice, 480-core machine and measures
// its power envelope (loading one slice and extrapolating, to keep the
// experiment fast; the slice measurement itself is simulated end to
// end).
func Scale(env *core.Env, iters int) (SystemScale, error) {
	var s SystemScale
	m, release, err := env.Checkout(5, 6, core.Options{})
	if err != nil {
		return s, err
	}
	defer release()
	s.Slices = m.Slices()
	s.Cores = m.CoreCount()
	s.PeakGIPS = m.PeakGIPS()
	s.PaperLoadedW = 134

	m.RunFor(300 * sim.Microsecond)
	idle := 0.0
	for i := 0; i < m.Slices(); i++ {
		idle += m.Board(i).SampleAll().TotalInputW()
	}
	s.IdleWallW = idle

	// Load slice 0 fully and measure its wall power.
	lm, releaseLoaded, err := env.Checkout(1, 1, core.Options{})
	if err != nil {
		return s, err
	}
	defer releaseLoaded()
	if err := lm.LoadAll(workload.HeavyLoad(4, iters)); err != nil {
		return s, err
	}
	lm.RunFor(50 * sim.Microsecond)
	lm.Board(0).SampleAll()
	lm.RunFor(500 * sim.Microsecond)
	perSlice := lm.Board(0).SampleAll().TotalInputW()
	s.LoadedWallW = perSlice * float64(s.Slices)
	return s, nil
}

// RenderScale formats the headline numbers.
func RenderScale(s SystemScale) *report.Table {
	t := report.NewTable("Fig. 1 / Section III-A: system scale",
		"metric", "paper", "simulated")
	t.AddRow("slices", "30", fmt.Sprintf("%d", s.Slices))
	t.AddRow("cores", "480", fmt.Sprintf("%d", s.Cores))
	t.AddRow("peak GIPS", "240", fmt.Sprintf("%.0f", s.PeakGIPS))
	t.AddRow("loaded wall power", "134 W", fmt.Sprintf("%.0f W", s.LoadedWallW))
	t.AddRow("idle wall power", "-", fmt.Sprintf("%.0f W", s.IdleWallW))
	return t
}
