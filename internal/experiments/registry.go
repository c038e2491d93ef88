package experiments

// This file is the single registration point of the experiment
// surface: every table and figure of the paper (and the extension
// experiments) files itself once with the harness registry, and
// cmd/swallow-tables, the service, bench/ and the golden determinism
// tests are all loops over harness.Artifacts(). Registration order is
// the canonical output order.

import (
	"swallow/internal/harness"
	"swallow/internal/nos"
	"swallow/internal/report"
	"swallow/internal/scenario"
)

// goodputPayloads is the canonical Section V-B payload grid.
var goodputPayloads = []int{4, 8, 16, 28, 48, 96}

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
	// Everything filed by registerScenario is a compiled scenario spec
	// (scenarios.go), its render pinned by bench/golden/tables.json.
	for _, s := range []scenario.Spec{
		Fig2Scenario(), Fig3Scenario(), Fig4Scenario(), Eq2Scenario(),
		LatencyScenario(), GoodputScenario(), ECScenario(),
	} {
		registerScenario(s)
	}
	registerSurveyEC()
	registerScenario(PlacementScenario())
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
	registerScenario(AblationLinksScenario())
	registerScenario(AblationPlacementScenario())
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
	// boot-sweep is the registry's warm-start showcase.
	registerScenario(BootSweepScenario())
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
