package experiments

// This file is the single registration point of the experiment
// surface: every table and figure of the paper (and the extension
// experiments) files itself once with the harness registry, and
// cmd/swallow-tables, bench_test.go and the golden determinism test
// all become loops over harness.Artifacts(). Registration order is
// the canonical output order.

import (
	"fmt"

	"swallow/internal/harness"
	"swallow/internal/nos"
	"swallow/internal/report"
)

// Fig3WithFit bundles the Fig. 3 sweep with its Eq. 1 fit so the
// rendered table can carry the fit row.
type Fig3WithFit struct {
	Points                         []Fig3Point
	SlopeMWPerMHz, InterceptMW, R2 float64
}

// goodputPayloads is the canonical Section V-B payload grid.
var goodputPayloads = []int{4, 8, 16, 28, 48, 96}

// placementItems is the canonical pipeline-placement workload size.
const placementItems = 150

func init() {
	harness.Register(harness.Spec[[]TableIRow]{
		Name:        "table1",
		Description: "Table I: measured communication energy per bit by link class",
		Run:         func(cfg harness.Config) ([]TableIRow, error) { return TableI(cfg.Env) },
		Render:      RenderTableI,
		Metrics: func(rows []TableIRow) map[string]float64 {
			m := make(map[string]float64)
			for _, r := range rows {
				m[harness.MetricName(r.Class.String(), "pJ/bit")] = r.MeasuredPJPerBit
			}
			return m
		},
	})
	registerSurveyTables()
	harness.Register(harness.Spec[SystemScale]{
		Name:        "fig1",
		Description: "Fig. 1 / Sec. III-A: assembled system scale, throughput and wall power",
		Uses:        harness.UsesIters,
		Run:         func(cfg harness.Config) (SystemScale, error) { return Scale(cfg.Env, cfg.Iters) },
		Render:      RenderScale,
		Metrics: func(s SystemScale) map[string]float64 {
			return map[string]float64{"GIPS": s.PeakGIPS, "loaded_W": s.LoadedWallW}
		},
	})
	harness.Register(harness.Spec[Fig2Result]{
		Name:        "fig2",
		Description: "Fig. 2: node power split between computation and overheads",
		Uses:        harness.UsesIters,
		Run:         func(cfg harness.Config) (Fig2Result, error) { return Fig2(cfg.Env, cfg.Iters) },
		Render:      RenderFig2,
		Metrics: func(r Fig2Result) map[string]float64 {
			return map[string]float64{"node_mW": r.NodeTotalW * 1e3, "compute_mW": r.ComputationW * 1e3}
		},
	})
	harness.Register(harness.Spec[Fig3WithFit]{
		Name:        "fig3",
		Description: "Fig. 3: core power vs frequency sweep with the Eq. 1 linear fit",
		Uses:        harness.UsesIters,
		Run: func(cfg harness.Config) (Fig3WithFit, error) {
			points, err := Fig3(cfg.Env, cfg.Iters)
			if err != nil {
				return Fig3WithFit{}, err
			}
			slope, intercept, r2, err := Fig3Fit(points)
			if err != nil {
				return Fig3WithFit{}, err
			}
			return Fig3WithFit{Points: points, SlopeMWPerMHz: slope, InterceptMW: intercept, R2: r2}, nil
		},
		Render: func(f Fig3WithFit) *report.Table {
			t := RenderFig3(f.Points)
			t.AddRow("(fit)", fmt.Sprintf("Pc = %.1f + %.3f f", f.InterceptMW, f.SlopeMWPerMHz),
				fmt.Sprintf("r2 = %.5f", f.R2), "paper: 46 + 0.30 f", "")
			return t
		},
		Metrics: func(f Fig3WithFit) map[string]float64 {
			return map[string]float64{
				"slope_mW/MHz": f.SlopeMWPerMHz, "intercept_mW": f.InterceptMW, "r2": f.R2,
			}
		},
	})
	harness.Register(harness.Spec[[]Fig4Point]{
		Name:        "fig4",
		Description: "Fig. 4: DVFS power saving against fixed-voltage scaling",
		Uses:        harness.UsesIters,
		Run:         func(cfg harness.Config) ([]Fig4Point, error) { return Fig4(cfg.Env, cfg.Iters) },
		Render:      RenderFig4,
		Metrics: func(points []Fig4Point) map[string]float64 {
			last := points[len(points)-1]
			return map[string]float64{"dvfs_500MHz_mW": last.PowerDVFSW * 1e3}
		},
	})
	harness.Register(harness.Spec[[]Eq2Point]{
		Name:        "eq2",
		Description: "Eq. 2: aggregate instruction rate vs active thread count",
		Uses:        harness.UsesIters,
		Run:         func(cfg harness.Config) ([]Eq2Point, error) { return Eq2(cfg.Env, cfg.Iters) },
		Render:      RenderEq2,
		Metrics: func(points []Eq2Point) map[string]float64 {
			m := make(map[string]float64)
			for _, p := range points {
				if p.Threads == 1 || p.Threads == 4 || p.Threads == 8 {
					m[fmt.Sprintf("MIPS_nt%d", p.Threads)] = p.MeasuredIPS / 1e6
				}
			}
			return m
		},
	})
	// latency, goodput and ec are compiled scenario specs (see
	// scenarios.go), their renders pinned by bench/golden/tables.json.
	registerLatencyScenario()
	registerGoodputScenario()
	registerECScenario()
	registerSurveyEC()
	harness.Register(harness.Spec[[]PlacementEnergyResult]{
		Name:        "placement",
		Description: "Pipeline placement: energy and elapsed time per mapping",
		Run: func(cfg harness.Config) ([]PlacementEnergyResult, error) {
			return PipelinePlacement(cfg.Env, placementItems)
		},
		Render: RenderPlacement,
		Metrics: func(rows []PlacementEnergyResult) map[string]float64 {
			m := make(map[string]float64)
			for _, r := range rows {
				m[harness.MetricName(r.Name, "nJ/item")] = r.EnergyPerItemJ * 1e9
				m[harness.MetricName(r.Name, "us")] = r.Elapsed.Seconds() * 1e6
			}
			return m
		},
	})
	harness.Register(harness.Spec[[]AblationRoutingResult]{
		Name:        "ablation-routing",
		Description: "Ablation: adaptive vs strict vertical-first routing",
		Run:         func(harness.Config) ([]AblationRoutingResult, error) { return AblationRouting() },
		Render:      RenderAblationRouting,
		Metrics: func(res []AblationRoutingResult) map[string]float64 {
			m := make(map[string]float64)
			for _, r := range res {
				m[r.Policy.String()+"_pathlen"] = r.MeanPathLength
				m[r.Policy.String()+"_xings"] = r.MeanTransitions
			}
			return m
		},
	})
	// Both ablations are compiled scenario specs too (scenarios.go).
	registerAblationLinksScenario()
	registerAblationPlacementScenario()
	harness.Register(harness.Spec[float64]{
		Name:        "bridge",
		Description: "Ethernet bridge: sustained off-system transfer rate",
		Run:         func(cfg harness.Config) (float64, error) { return BridgeRate(cfg.Env) },
		Render:      RenderBridgeRate,
		Metrics: func(rate float64) map[string]float64 {
			return map[string]float64{"bridge_Mbit/s": rate / 1e6}
		},
	})
	harness.Register(harness.Spec[nos.BootStats]{
		Name:        "boot",
		Description: "Network boot: image size and end-to-end boot time",
		Run:         func(cfg harness.Config) (nos.BootStats, error) { return BootCost(cfg.Env) },
		Render:      RenderBootCost,
		Metrics: func(st nos.BootStats) map[string]float64 {
			return map[string]float64{
				"image_bytes": float64(st.ImageBytes),
				"boot_us":     st.Elapsed.Seconds() * 1e6,
			}
		},
	})
	// boot-sweep is a compiled scenario with Boot set (scenarios.go):
	// the registry's warm-start showcase.
	registerBootSweepScenario()
	harness.Register(harness.Spec[EnergyCompare]{
		Name:        "energy",
		Description: "Computation vs communication energy per bit",
		Run:         func(harness.Config) (EnergyCompare, error) { return ComputeVsComm(), nil },
		Render:      RenderEnergyCompare,
		Metrics: func(e EnergyCompare) map[string]float64 {
			return map[string]float64{
				"compute_lo_pJ/bit":  e.ComputeLoPJ,
				"compute_hi_pJ/bit":  e.ComputeHiPJ,
				"onchip_link_pJ/bit": e.OnChipLinkPJ,
			}
		},
	})
	harness.Register(harness.Spec[struct{}]{
		Name:        "adc",
		Description: "ADC measurement chain: sample rates and bandwidth checks",
		Run: func(cfg harness.Config) (struct{}, error) {
			return struct{}{}, MeasurementRates(cfg.Env)
		},
		Render: func(struct{}) *report.Table { return RenderMeasurementRates() },
	})
}
