package experiments

// The canonical scenario specs: Table I, the load figures (Fig. 2-4,
// Eq. 2), the goodput, latency, EC-regime, placement and ablation
// artifacts, the instruments (the Ethernet bridge, the nOS network boot
// and the ADC board) and the boot sweep, expressed declaratively and
// compiled into the registry by registerScenario in the registry init,
// at their canonical listing positions. Each spec is the only
// implementation of its artifact: the paper checks run on what the
// registry serves, and TestCanonicalRendersMatchGolden holds every
// render to the sha256 committed in bench/golden/tables.json. The same
// spec vocabulary is what swallow-tables -scenario and POST /scenarios
// accept, so the canonical tables double as worked examples for novel
// submissions.

import (
	"slices"
	"strings"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// vNode and hNode abbreviate spec node references.
func vNode(x, y int) scenario.NodeRef { return scenario.NodeRef{X: x, Y: y, Layer: "V"} }
func hNode(x, y int) scenario.NodeRef { return scenario.NodeRef{X: x, Y: y, Layer: "H"} }

func ref(n scenario.NodeRef) *scenario.NodeRef { return &n }

// stream is one flow of tokens from src's channel end 0 to dst's dstEnd.
func stream(src, dst scenario.NodeRef, dstEnd, tokens int) []scenario.FlowSpec {
	return []scenario.FlowSpec{{Src: src, Dst: dst, DstEnd: dstEnd, Tokens: tokens}}
}

// fourEnds is four flows from src to dst, each channel end i to end i.
func fourEnds(src, dst scenario.NodeRef, tokens, packet int) []scenario.FlowSpec {
	flows := make([]scenario.FlowSpec, 4)
	for i := range flows {
		flows[i] = scenario.FlowSpec{Src: src, SrcEnd: i, Dst: dst, DstEnd: i, Tokens: tokens, PacketTokens: packet}
	}
	return flows
}

// TableIScenario is Table I as a spec: one 4096-token stream per link
// class on a 2x1 grid, each on its own machine, so the one class its
// route loads is the row it reads.
func TableIScenario() scenario.Spec {
	return scenario.Spec{
		Name:        "table1",
		Description: "Table I: measured communication energy per bit by link class",
		Grid:        scenario.Grid{SlicesX: 2, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "traffic"},
		Sweep: []scenario.Axis{{Param: "link", Variants: []scenario.Variant{
			{Name: "on-chip", Flows: stream(vNode(0, 0), hNode(0, 0), 0, 4096)},
			{Name: "on-board vertical", Flows: stream(vNode(0, 0), vNode(0, 1), 0, 4096)},
			{Name: "on-board horizontal", Flows: stream(hNode(0, 0), hNode(1, 0), 0, 4096)},
			{Name: "off-board", Flows: stream(hNode(1, 0), hNode(2, 0), 0, 4096)},
		}}},
		Measure: "link_energy",
		Table:   &scenario.Table{Title: "Table I: per-bit energies of Swallow links"},
	}
}

// Fig2Scenario is the Fig. 2 budget as a spec: every core of a slice
// under the four-thread heavy load, its energy report per node.
func Fig2Scenario() scenario.Spec {
	return scenario.Spec{
		Name:        "fig2",
		Description: "Fig. 2: node power split between computation and overheads",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "load"},
		Sweep:       []scenario.Axis{{Param: "freq_mhz", Floats: []float64{500}}},
		Measure:     "budget",
		Table:       &scenario.Table{Title: "Fig. 2: per-node power budget (under load)"},
	}
}

// Fig3Scenario is the Fig. 3 sweep as a spec: the four cores of one
// 1 V rail loaded, the rail read loaded and idle at each clock, with
// the Eq. 1 fit.
func Fig3Scenario() scenario.Spec {
	return scenario.Spec{
		Name:        "fig3",
		Description: "Fig. 3: core power vs frequency sweep with the Eq. 1 linear fit",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload: scenario.Workload{
			Structure: "load",
			Placement: &scenario.Placement{Nodes: []scenario.NodeRef{
				vNode(0, 0), hNode(0, 0), vNode(1, 0), hNode(1, 0),
			}},
		},
		Sweep:   []scenario.Axis{{Param: "freq_mhz", Floats: []float64{71, 125, 200, 275, 350, 425, 500}}},
		Measure: "rail_power",
		Table:   &scenario.Table{Title: "Fig. 3: power vs frequency (four cores)"},
	}
}

// Fig4Scenario is the Fig. 4 comparison as a spec: one loaded core at
// 1 V and at VMin, per clock.
func Fig4Scenario() scenario.Spec {
	return scenario.Spec{
		Name:        "fig4",
		Description: "Fig. 4: DVFS power saving against fixed-voltage scaling",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload: scenario.Workload{
			Structure: "load",
			Placement: &scenario.Placement{Nodes: []scenario.NodeRef{vNode(0, 0)}},
		},
		Sweep:   []scenario.Axis{{Param: "freq_mhz", Floats: []float64{71, 125, 200, 275, 350, 425, 500}}},
		Measure: "core_power",
		Table:   &scenario.Table{Title: "Fig. 4: voltage + frequency scaling (one core, four threads)"},
	}
}

// Eq2Scenario is the Eq. 2 validation as a spec: one core's
// instruction rate against its thread count.
func Eq2Scenario() scenario.Spec {
	return scenario.Spec{
		Name:        "eq2",
		Description: "Eq. 2: aggregate instruction rate vs active thread count",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload: scenario.Workload{
			Structure: "load",
			Placement: &scenario.Placement{Nodes: []scenario.NodeRef{vNode(0, 0)}},
		},
		Sweep:   []scenario.Axis{{Param: "threads", Ints: []int{1, 2, 3, 4, 5, 6, 7, 8}}},
		Measure: "mips",
		Table: &scenario.Table{
			Title: "Eq. 2: aggregate throughput vs active threads (500 MHz)",
			Label: "threads",
		},
	}
}

// PlacementScenario is the Section V-D placement ablation as a spec:
// one five-stage pipeline, chip-local (stages walk one column) and
// scattered (stages in opposite corners of a 2x2-slice machine, every
// hop crossing boards).
func PlacementScenario() scenario.Spec {
	return scenario.Spec{
		Name:        "placement",
		Description: "Pipeline placement: energy and elapsed time per mapping",
		Grid:        scenario.Grid{SlicesX: 2, SlicesY: 2},
		Workload:    scenario.Workload{Structure: "pipeline", Items: 150},
		Sweep: []scenario.Axis{{Param: "placement", Variants: []scenario.Variant{
			{Name: "chip-local", Nodes: []scenario.NodeRef{
				vNode(0, 0), hNode(0, 0), vNode(0, 1), hNode(0, 1), vNode(0, 2),
			}},
			{Name: "scattered", Nodes: []scenario.NodeRef{
				vNode(0, 0), hNode(3, 7), vNode(0, 7), hNode(3, 0), vNode(1, 4),
			}},
		}}},
		Measure: "energy",
		Table: &scenario.Table{
			Title: "Placement ablation: five-stage pipeline, identical work",
			Label: "placement",
		},
	}
}

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
	external := []scenario.FlowSpec{
		{Src: vNode(0, 1), SrcEnd: 0, Dst: vNode(0, 0), DstEnd: 0, Tokens: 2000},
		{Src: vNode(0, 1), SrcEnd: 1, Dst: vNode(0, 2), DstEnd: 1, Tokens: 2000},
		{Src: hNode(0, 1), SrcEnd: 2, Dst: hNode(1, 1), DstEnd: 2, Tokens: 2000},
		{Src: hNode(1, 1), SrcEnd: 3, Dst: hNode(0, 1), DstEnd: 3, Tokens: 2000},
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
				{Name: "package-internal (4 links)", EMult: 1, PaperEC: 16, Flows: fourEnds(vNode(0, 0), hNode(0, 0), 4000, 0)},
				{Name: "external links (4 x 62.5M)", EMult: 1, PaperEC: 64, Flows: external},
				{Name: "one external link, 4 threads contending", EMult: 1, PaperEC: 256, Flows: fourEnds(vNode(0, 0), vNode(0, 1), 2240, 112)},
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
	return scenario.Spec{
		Name:        "ablation-links",
		Description: "Ablation: aggregate goodput vs enabled internal link count",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "traffic", Flows: fourEnds(vNode(0, 0), hNode(0, 0), 3000, 30)},
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
	variants := []scenario.Variant{
		{Name: "core-local", Flows: stream(vNode(0, 0), vNode(0, 0), 1, 8000)},
		{Name: "in-package", Flows: stream(vNode(0, 0), hNode(0, 0), 0, 8000)},
		{Name: "on-board", Flows: stream(vNode(0, 0), vNode(0, 1), 0, 8000)},
		{Name: "off-board", Flows: stream(hNode(1, 0), hNode(2, 0), 0, 8000)},
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

// BridgeScenario is the Ethernet bridge's ingress rate as a spec: the
// bridge streams into its own core, so its 80 Mbit/s cap binds.
func BridgeScenario() scenario.Spec {
	return scenario.Spec{
		Name:        "bridge",
		Description: "Ethernet bridge: sustained off-system transfer rate",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "traffic"},
		Sweep:       []scenario.Axis{{Param: "cap", Variants: []scenario.Variant{{Name: "80Mbit/s"}}}},
		Measure:     "bridge_rate",
		Table:       &scenario.Table{Title: "Ethernet bridge ingress rate", Label: "cap", Value: "measured"},
	}
}

// BootScenario is the nOS network boot as a spec: a four-core job
// streamed through the bridge.
func BootScenario() scenario.Spec {
	return scenario.Spec{
		Name:        "boot",
		Description: "Network boot: image size and end-to-end boot time",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload: scenario.Workload{
			Structure: "load",
			Placement: &scenario.Placement{Nodes: []scenario.NodeRef{
				vNode(0, 0), hNode(0, 0), vNode(1, 0), hNode(1, 0),
			}},
		},
		Sweep:   []scenario.Axis{{Param: "freq_mhz", Floats: []float64{500}}},
		Measure: "boot_cost",
		Table:   &scenario.Table{Title: "nOS network boot (4-core job over the bridge)"},
	}
}

// ADCScenario is the Section II sampling limits as a spec: a loaded
// slice read through its daughter-board.
func ADCScenario() scenario.Spec {
	return scenario.Spec{
		Name:        "adc",
		Description: "ADC measurement chain: sample rates and bandwidth checks",
		Grid:        scenario.Grid{SlicesX: 1, SlicesY: 1},
		Workload:    scenario.Workload{Structure: "load"},
		Sweep:       []scenario.Axis{{Param: "freq_mhz", Floats: []float64{500}}},
		Measure:     "adc_rates",
		Table:       &scenario.Table{Title: "ADC daughter-board rate limits (Section II)"},
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

// CanonicalScenarios lists the compiled paper artifacts (boot-sweep,
// the warm-start showcase, aside), for tests.
func CanonicalScenarios() []scenario.Spec {
	return []scenario.Spec{
		TableIScenario(),
		Fig2Scenario(),
		Fig3Scenario(),
		Fig4Scenario(),
		Eq2Scenario(),
		LatencyScenario(),
		GoodputScenario(),
		ECScenario(),
		PlacementScenario(),
		AblationLinksScenario(),
		AblationPlacementScenario(),
		BridgeScenario(),
		BootScenario(),
		ADCScenario(),
	}
}

// registerScenario compiles a canonical spec into the registry with
// its benchmark headline quantities, called from the registry init in
// canonical listing order. The declarations stay here, not in the
// compiler, so the headline names outlive any change to the specs.
func registerScenario(s scenario.Spec) {
	var metrics func(*scenario.Result) map[string]float64
	if hs := headlines[s.Name]; hs != nil {
		metrics = func(res *scenario.Result) map[string]float64 { return headlineMetrics(res, hs) }
	}
	scenario.MustRegister(s, metrics)
}

// A headline declares one benchmark quantity of a compiled artifact:
// column col of every row that has it — or of the points labelled in
// at, when at is set — scaled by 10^exp and named name, with the row's
// label (or, when key is set, the cell of its key column) in place of
// a "*" in name.
type headline struct {
	name, col string
	at        []string
	key       string
	exp       int
}

// headlineMetrics reads the headlines from a result.
func headlineMetrics(res *scenario.Result, hs []headline) map[string]float64 {
	m := make(map[string]float64)
	for _, h := range hs {
		for _, p := range slices.Concat(res.Points, res.Extra) {
			c, ok := p.Col(h.col)
			if !ok || h.at != nil && !slices.Contains(h.at, p.Label) {
				continue
			}
			key := p.Label
			if k, ok := p.Col(h.key); ok {
				key = k.Cell()
			}
			m[harness.MetricName(strings.Replace(h.name, "*", key, 1))] = scenario.Scale(c.Value, h.exp)
		}
	}
	return m
}

// headlines declares each compiled artifact's headline metrics. Every
// column holds SI units but latency's nanoseconds; exp scales it to the
// metric's.
var headlines = map[string][]headline{
	"table1": {{name: "*_pJ/bit", col: "bit_energy", key: "class", exp: 12}},
	"fig2":   {{name: "node_mW", col: "node", exp: 3}, {name: "compute_mW", col: "compute", exp: 3}},
	"fig3": {
		{name: "slope_mW/MHz", col: "slope"}, {name: "intercept_mW", col: "intercept"}, {name: "r2", col: "r2"},
	},
	"fig4":    {{name: "dvfs_500MHz_mW", col: "model_dvfs_power", at: []string{"500 MHz"}, exp: 3}},
	"eq2":     {{name: "MIPS_nt*", col: "ips", at: []string{"1", "4", "8"}, exp: -6}},
	"latency": {{name: "*_ns", col: "ns"}},
	"goodput": {{name: "goodput_28B_%", col: "fraction", at: []string{"28"}, exp: 2}},
	"ec": {
		{name: "bisection_EC", col: "ec", at: []string{"slice bisection (8 cores)"}},
		{name: "bisection_Mbit/s", col: "c", at: []string{"slice bisection (8 cores)"}, exp: -6},
	},
	"placement":          {{name: "*_nJ/item", col: "item_energy", exp: 9}, {name: "*_us", col: "elapsed", exp: 6}},
	"ablation-links":     {{name: "links*_Mbit/s", col: "goodput", exp: -6}},
	"ablation-placement": {{name: "*_Mbit/s", col: "goodput", exp: -6}},
	"bridge":             {{name: "bridge_Mbit/s", col: "goodput", exp: -6}},
	"boot":               {{name: "image_bytes", col: "image_bytes"}, {name: "boot_us", col: "elapsed", exp: 6}},
	"boot-sweep":         {{name: "*_nJ/item", col: "item_energy", exp: 9}},
}
