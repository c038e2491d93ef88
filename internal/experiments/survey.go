package experiments

import (
	"fmt"

	"swallow/internal/energy"
	"swallow/internal/harness"
	"swallow/internal/report"
	"swallow/internal/survey"
)

// registerSurveyTables files the survey-backed Table II/III artifacts.
// Called from registry.go, which owns the canonical artifact order.
func registerSurveyTables() {
	harness.Register(harness.Spec[*report.Table]{
		Name:        "table2",
		Description: "Table II: candidate processor survey with requirement verdicts",
		Run:         func(harness.Config) (*report.Table, error) { return RenderTableII() },
		Render:      func(t *report.Table) *report.Table { return t },
	})
	harness.Register(harness.Spec[*report.Table]{
		Name:        "table3",
		Description: "Table III: scale, technology and power of surveyed many-cores",
		Run:         func(harness.Config) (*report.Table, error) { return RenderTableIII(), nil },
		Render:      func(t *report.Table) *report.Table { return t },
		Metrics: func(*report.Table) map[string]float64 {
			sw, _ := survey.SystemByName("Swallow")
			return map[string]float64{"swallow_uW/MHz_derived": sw.DerivedUWPerMHz()}
		},
	})
}

// registerSurveyEC files the Section VI related-work EC artifact.
func registerSurveyEC() {
	harness.Register(harness.Spec[*report.Table]{
		Name:        "survey-ec",
		Description: "Sec. VI: system-wide EC ratios of surveyed systems",
		Run:         func(harness.Config) (*report.Table, error) { return RenderSurveyEC(), nil },
		Render:      func(t *report.Table) *report.Table { return t },
		Metrics: func(*report.Table) map[string]float64 {
			lo, hi := survey.ECRange()
			return map[string]float64{"EC_lo": lo, "EC_hi": hi}
		},
	})
}

// RenderTableII formats the candidate-processor comparison with the
// requirement verdict recomputed from the predicate.
func RenderTableII() (*report.Table, error) {
	sel, err := survey.SelectedCandidate()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table II: candidate Swallow processors",
		"processor", "cores x width", "superscalar", "cache", "memory",
		"interconnect", "deterministic", "meets reqs")
	for _, c := range survey.Candidates {
		ss := "No"
		if c.SuperScalar {
			ss = "Yes"
		}
		verdict := ""
		if c.MeetsRequirements() {
			verdict = "YES"
		}
		t.AddRow(c.Name,
			fmt.Sprintf("%dx%d-bit", c.Cores, c.DataWidthBits),
			ss, c.Cache.String(), c.Memory.String(),
			c.Interconnect.String(), c.Deterministic.String(), verdict)
	}
	if sel.Name != "XMOS XS1-L" {
		return nil, fmt.Errorf("experiments: selection predicate chose %q", sel.Name)
	}
	return t, nil
}

// RenderTableIII formats the many-core system comparison with the
// uW/MHz column derived where the published number is power/frequency.
func RenderTableIII() *report.Table {
	t := report.NewTable("Table III: scale, technology and power of recent many-core systems",
		"system", "ISA", "cores/chip", "total cores", "node", "power/core",
		"freq", "uW/MHz (paper)", "uW/MHz (derived)")
	for _, s := range survey.Systems {
		cores := fmt.Sprintf("%d", s.TotalCoresMax)
		if s.TotalCoresMin != s.TotalCoresMax {
			cores = fmt.Sprintf("%d-%d", s.TotalCoresMin, s.TotalCoresMax)
		}
		pw := fmt.Sprintf("%.0f mW", s.PowerPerCoreMaxW*1e3)
		if s.PowerPerCoreMinW != s.PowerPerCoreMaxW {
			pw = fmt.Sprintf("%.0f-%.0f mW", s.PowerPerCoreMinW*1e3, s.PowerPerCoreMaxW*1e3)
		}
		fq := fmt.Sprintf("%.0f MHz", s.FreqMaxMHz)
		if s.FreqMinMHz != s.FreqMaxMHz {
			fq = fmt.Sprintf("%.0f-%.0f MHz", s.FreqMinMHz, s.FreqMaxMHz)
		}
		pub := fmt.Sprintf("%.0f", s.PublishedUWPerMHzHi)
		if s.PublishedUWPerMHzLo != s.PublishedUWPerMHzHi {
			pub = fmt.Sprintf("%.0f-%.0f", s.PublishedUWPerMHzLo, s.PublishedUWPerMHzHi)
		}
		t.AddRow(s.Name, s.ISA,
			fmt.Sprintf("%d", s.CoresPerChip), cores,
			fmt.Sprintf("%d nm", s.TechNodeNM), pw, fq, pub,
			fmt.Sprintf("%.0f", s.DerivedUWPerMHz()))
	}
	return t
}

// RenderSurveyEC formats the related-work EC comparison.
func RenderSurveyEC() *report.Table {
	t := report.NewTable("Section VI: system-wide EC ratios of surveyed systems",
		"system", "E Gbit/s", "C Gbit/s", "EC")
	for _, s := range survey.Systems {
		if s.Name == "Swallow" {
			continue
		}
		t.AddRow(s.Name,
			fmt.Sprintf("%.1f", s.ComputeGbps),
			fmt.Sprintf("%.1f", s.CommGbps),
			fmt.Sprintf("%.2f", s.ECRatio()))
	}
	lo, hi := survey.ECRange()
	t.AddRow("(range)", "", "", fmt.Sprintf("%.2f - %.0f", lo, hi))
	return t
}

// EnergyCompare is the Section II comparison of per-bit compute
// energy (ALU lower bound to divide upper bound, at 400 MHz) against
// per-bit on-chip link energy — the ratio that motivates
// energy-transparent communication.
type EnergyCompare struct {
	ComputeLoPJ, ComputeHiPJ, OnChipLinkPJ float64
}

// ComputeVsComm derives the comparison from the calibrated models.
func ComputeVsComm() EnergyCompare {
	lo := energy.PerBitComputeEnergy(energy.InstrEnergyTotal(energy.ClassALU, 400, 1))
	hi := energy.PerBitComputeEnergy(energy.InstrEnergyTotal(energy.ClassDiv, 400, 1))
	link := energy.LinkEnergyPerBit(energy.LinkOnChip)
	return EnergyCompare{
		ComputeLoPJ:  lo * 1e12,
		ComputeHiPJ:  hi * 1e12,
		OnChipLinkPJ: link * 1e12,
	}
}

// RenderEnergyCompare formats the comparison.
func RenderEnergyCompare(e EnergyCompare) *report.Table {
	t := report.NewTable("Section II: per-bit compute vs communication energy",
		"quantity", "pJ/bit")
	t.AddRow("compute, ALU class (lower bound)", fmt.Sprintf("%.2f", e.ComputeLoPJ))
	t.AddRow("compute, divide class (upper bound)", fmt.Sprintf("%.2f", e.ComputeHiPJ))
	t.AddRow("on-chip link", fmt.Sprintf("%.2f", e.OnChipLinkPJ))
	return t
}
