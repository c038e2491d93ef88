package experiments

// The canonical scenario specs: the goodput, latency, EC-regime and
// ablation artifacts expressed declaratively and compiled into the
// registry by the register*Scenario calls in the registry init, at
// their canonical listing positions. Each spec is the only
// implementation of its artifact: the Section V checks run on what the
// registry serves, and TestCanonicalRendersMatchGolden holds every
// render to the sha256 committed in bench/golden/tables.json. The same
// spec vocabulary is what swallow-tables -scenario and POST /scenarios
// accept, so the canonical tables double as worked examples for novel
// submissions.

import (
	"fmt"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// vNode and hNode abbreviate spec node references.
func vNode(x, y int) scenario.NodeRef { return scenario.NodeRef{X: x, Y: y, Layer: "V"} }
func hNode(x, y int) scenario.NodeRef { return scenario.NodeRef{X: x, Y: y, Layer: "H"} }

func ref(n scenario.NodeRef) *scenario.NodeRef { return &n }

// GoodputScenario is the Section V-B payload sweep as a spec: one
// host-driven flow per point, packet payload bound to the sweep axis,
// token budget scaled 120x the payload.
func GoodputScenario() scenario.Spec {
	return scenario.Spec{
		Name:        "goodput",
		Description: "Sec. V-B: packetised goodput fraction across payload sizes",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload: scenario.Workload{
			Structure: "traffic",
			Flows: []scenario.FlowSpec{{
				Src: vNode(0, 0), Dst: vNode(0, 1),
				TokensPerUnit: 120, PacketFromAxis: true,
			}},
		},
		Sweep: []scenario.Axis{{
			Param:      "payload",
			FromConfig: "goodput_payloads",
			Ints:       append([]int(nil), goodputPayloads...),
		}},
		Measure: "goodput_fraction",
		Table:   &scenario.Table{Title: "Section V-B: packet overhead (goodput / link rate)"},
	}
}

// LatencyScenario is the Section V-C placement table as a spec: a
// ping structure at maximum link rates swept over the canonical
// placements in table order, paper values carried as variant
// annotations (0 where the paper gives only the other unit).
func LatencyScenario() scenario.Spec {
	variants := []scenario.Variant{
		{Name: "core-local word", A: ref(vNode(0, 0)), B: ref(vNode(0, 0)), PaperNS: 50, PaperInstrs: 6},
		{Name: "in-package word", A: ref(vNode(0, 0)), B: ref(hNode(0, 0)), PaperInstrs: 40},
		{Name: "cross-package word", A: ref(vNode(0, 0)), B: ref(vNode(0, 1)), PaperNS: 360, PaperInstrs: 45},
		{Name: "cross-board word", A: ref(hNode(0, 0)), B: ref(hNode(2, 0))},
	}
	return scenario.Spec{
		Name:        "latency",
		Description: "Sec. V-C: core-to-core word latency by placement",
		Grid:        scenario.Grid{SlicesX: 2, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "ping", Rounds: 32},
		Operating:   &scenario.Operating{Links: "max"},
		Sweep: []scenario.Axis{{
			Param:      "placement",
			FromConfig: "latency_placements",
			Variants:   variants,
		}},
		Measure: "latency",
		Table:   &scenario.Table{Title: "Section V-C: core-to-core word latency"},
	}
}

// ECScenario is the Section V-D regime table as a spec: each regime
// is a variant carrying its saturating flow set (none for the
// issue-limited core-local regime, where C = E analytically), its
// execution multiplier and the printed ratio.
func ECScenario() scenario.Spec {
	internal4 := make([]scenario.FlowSpec, 0, 4)
	for i := 0; i < 4; i++ {
		internal4 = append(internal4, scenario.FlowSpec{
			Src: vNode(0, 0), SrcEnd: i, Dst: hNode(0, 0), DstEnd: i, Tokens: 4000,
		})
	}
	external := []scenario.FlowSpec{
		{Src: vNode(0, 1), SrcEnd: 0, Dst: vNode(0, 0), DstEnd: 0, Tokens: 2000},
		{Src: vNode(0, 1), SrcEnd: 1, Dst: vNode(0, 2), DstEnd: 1, Tokens: 2000},
		{Src: hNode(0, 1), SrcEnd: 2, Dst: hNode(1, 1), DstEnd: 2, Tokens: 2000},
		{Src: hNode(1, 1), SrcEnd: 3, Dst: hNode(0, 1), DstEnd: 3, Tokens: 2000},
	}
	contended := make([]scenario.FlowSpec, 0, 4)
	for i := 0; i < 4; i++ {
		contended = append(contended, scenario.FlowSpec{
			Src: vNode(0, 0), SrcEnd: i, Dst: vNode(0, 1), DstEnd: i,
			Tokens: 2240, PacketTokens: 112,
		})
	}
	var bisection []scenario.FlowSpec
	i := 0
	for y := 0; y < 4; y++ {
		for _, layer := range []string{"V", "H"} {
			bisection = append(bisection, scenario.FlowSpec{
				Src:    scenario.NodeRef{X: 0, Y: y, Layer: layer},
				SrcEnd: i % 4,
				Dst:    scenario.NodeRef{X: 1, Y: y, Layer: layer},
				DstEnd: i % 4,
				Tokens: 2400, PacketTokens: 120,
			})
			i++
		}
	}
	return scenario.Spec{
		Name:        "ec",
		Description: "Sec. V-D: execution/communication ratios per traffic regime",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "traffic"},
		Sweep: []scenario.Axis{{
			Param: "regime",
			Variants: []scenario.Variant{
				{Name: "core-local", EMult: 1, PaperEC: 1},
				{Name: "package-internal (4 links)", EMult: 1, PaperEC: 16, Flows: internal4},
				{Name: "external links (4 x 62.5M)", EMult: 1, PaperEC: 64, Flows: external},
				{Name: "one external link, 4 threads contending", EMult: 1, PaperEC: 256, Flows: contended},
				{Name: "slice bisection (8 cores)", EMult: 8, PaperEC: 512, Flows: bisection},
			},
		}},
		Measure: "ec",
		Table:   &scenario.Table{Title: "Section V-D: execution/communication ratios"},
	}
}

// AblationLinksScenario is the link-aggregation ablation as a spec:
// four package-internal flows swept over the enabled-link count (a
// structural axis, so each count is its own pool shape).
func AblationLinksScenario() scenario.Spec {
	flows := make([]scenario.FlowSpec, 0, 4)
	for i := 0; i < 4; i++ {
		flows = append(flows, scenario.FlowSpec{
			Src: vNode(0, 0), SrcEnd: i, Dst: hNode(0, 0), DstEnd: i,
			Tokens: 3000, PacketTokens: 30,
		})
	}
	return scenario.Spec{
		Name:        "ablation-links",
		Description: "Ablation: aggregate goodput vs enabled internal link count",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "traffic", Flows: flows},
		Sweep:       []scenario.Axis{{Param: "links", Ints: []int{1, 2, 3, 4}}},
		Measure:     "aggregate_goodput",
		Table: &scenario.Table{
			Title: "Ablation: internal link aggregation (4 flows)",
			Label: "enabled links",
			Value: "aggregate goodput",
			Ratio: "vs 1 link",
		},
	}
}

// AblationPlacementScenario is the stream-placement ablation as a
// spec: one 8000-token stream per variant, endpoints moving from
// core-local (two channel ends on one core) to off-board.
func AblationPlacementScenario() scenario.Spec {
	stream := func(src, dst scenario.NodeRef, dstEnd int) []scenario.FlowSpec {
		return []scenario.FlowSpec{{Src: src, Dst: dst, DstEnd: dstEnd, Tokens: 8000}}
	}
	variants := []scenario.Variant{
		{Name: "core-local", Flows: stream(vNode(0, 0), vNode(0, 0), 1)},
		{Name: "in-package", Flows: stream(vNode(0, 0), hNode(0, 0), 0)},
		{Name: "on-board", Flows: stream(vNode(0, 0), vNode(0, 1), 0)},
		{Name: "off-board", Flows: stream(hNode(1, 0), hNode(2, 0), 0)},
	}
	return scenario.Spec{
		Name:        "ablation-placement",
		Description: "Ablation: stream goodput across source/destination placements",
		Grid:        scenario.Grid{SlicesX: 2, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "traffic"},
		Sweep:       []scenario.Axis{{Param: "placement", Variants: variants}},
		Measure:     "aggregate_goodput",
		Table: &scenario.Table{
			Title: "Ablation: single-stream goodput by placement",
			Label: "placement",
			Value: "goodput",
		},
	}
}

// BootSweepScenario is the warm-start showcase: a short network-booted
// pipeline swept across a DFS frequency grid. Every point shares one
// boot prefix — images streamed over the simulated network at the base
// operating point — then retunes to its own frequency and runs. A
// warm-start sweep snapshots the booted machine once per worker and
// restores it per point instead of re-simulating the boot.
func BootSweepScenario() scenario.Spec {
	return scenario.Spec{
		Name:        "boot-sweep",
		Description: "Network-booted pipeline: per-item energy across a DFS frequency sweep",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload: scenario.Workload{
			Structure: "pipeline",
			Items:     8,
			Boot:      true,
			Placement: &scenario.Placement{Nodes: []scenario.NodeRef{
				vNode(0, 0), hNode(0, 0), vNode(0, 1), hNode(0, 1),
			}},
		},
		Sweep: []scenario.Axis{{
			Param:  "freq_mhz",
			Floats: []float64{100, 150, 200, 250, 300, 350, 400, 500},
		}},
		Measure: "energy",
		Table: &scenario.Table{
			Title: "Network-booted pipeline under DFS (boot at 500 MHz, run at f)",
			Label: "run frequency",
		},
	}
}

func registerBootSweepScenario() {
	scenario.MustRegister(BootSweepScenario(), func(r *scenario.Result) map[string]float64 {
		m := make(map[string]float64)
		for _, p := range r.Points {
			m[harness.MetricName(p.Label, "nJ/item")] = p.PerItemJ * 1e9
		}
		return m
	})
}

// CanonicalScenarios lists the registry artifacts that are compiled
// from scenario specs, for tests.
func CanonicalScenarios() []scenario.Spec {
	return []scenario.Spec{
		LatencyScenario(),
		GoodputScenario(),
		ECScenario(),
		AblationLinksScenario(),
		AblationPlacementScenario(),
	}
}

// The scenario registrations, called from the registry init in
// canonical listing order. Metric extraction stays here (not in the
// compiler) so the benchmark headline names survive the refactor
// unchanged.

func registerLatencyScenario() {
	scenario.MustRegister(LatencyScenario(), func(r *scenario.Result) map[string]float64 {
		m := make(map[string]float64)
		for _, p := range r.Points {
			m[harness.MetricName(p.Label, "ns")] = p.NS
		}
		return m
	})
}

func registerGoodputScenario() {
	scenario.MustRegister(GoodputScenario(), func(r *scenario.Result) map[string]float64 {
		m := make(map[string]float64)
		for _, p := range r.Points {
			if p.Payload == 28 {
				m["goodput_28B_%"] = p.Fraction * 100
			}
		}
		return m
	})
}

func registerECScenario() {
	scenario.MustRegister(ECScenario(), func(r *scenario.Result) map[string]float64 {
		last := r.Points[len(r.Points)-1]
		return map[string]float64{
			"bisection_EC":     last.EC,
			"bisection_Mbit/s": last.CBps / 1e6,
		}
	})
}

func registerAblationLinksScenario() {
	scenario.MustRegister(AblationLinksScenario(), func(r *scenario.Result) map[string]float64 {
		m := make(map[string]float64)
		for _, p := range r.Points {
			m[fmt.Sprintf("links%d_Mbit/s", p.IntValue)] = p.GoodputBps / 1e6
		}
		return m
	})
}

func registerAblationPlacementScenario() {
	scenario.MustRegister(AblationPlacementScenario(), func(r *scenario.Result) map[string]float64 {
		m := make(map[string]float64)
		for _, p := range r.Points {
			m[harness.MetricName(p.Label, "Mbit/s")] = p.GoodputBps / 1e6
		}
		return m
	})
}
