// Package experiments regenerates every table and figure of the paper
// from the simulator and files each once with the harness registry.
// Every artifact that runs a machine but fig1 is a compiled scenario
// spec, one embedded JSON file under specs/ that can be POSTed as it
// is (scenarios.go). What stays in Go is the static tables (Tables II
// and III, the EC survey and the compute-vs-communication comparison,
// survey.go; the route-policy ablation, network.go), fig1's 480-core
// Scale (network.go) and the specs' headline metrics.
// cmd/swallow-tables, the service and bench/ drive the registry.
package experiments

// This file is the single registration point of the experiment
// surface: every table and figure of the paper (and the extension
// experiments) files itself once with the harness registry, and
// cmd/swallow-tables, the service, bench/ and the golden determinism
// tests are all loops over harness.Artifacts(). Registration order is
// the canonical output order.

import "swallow/internal/harness"

func init() {
	// Everything filed by registerScenario is a compiled spec file
	// (scenarios.go), its render pinned by bench/golden/tables.json.
	registerScenario("table1")
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
	registerScenario("fig2", "fig3", "fig4", "eq2", "latency", "goodput", "ec")
	registerSurveyEC()
	registerScenario("placement")
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
	registerScenario("ablation-links", "ablation-placement", "bridge", "boot", "boot-sweep")
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
	registerScenario("adc")
}
