package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEq2Laws(t *testing.T) {
	const f = 500e6
	cases := []struct {
		nt         int
		ipst, ipsc float64
	}{
		{1, 125e6, 125e6},
		{2, 125e6, 250e6},
		{3, 125e6, 375e6},
		{4, 125e6, 500e6},
		{5, 100e6, 500e6},
		{8, 62.5e6, 500e6},
	}
	for _, c := range cases {
		if got := IPSCore(f, c.nt); math.Abs(got-c.ipsc) > 1 {
			t.Errorf("IPSCore(%d) = %v, want %v", c.nt, got, c.ipsc)
		}
	}
	if IPSCore(f, -1) != 0 {
		t.Error("nonpositive thread counts must give 0")
	}
}

func TestEq2ConservationProperty(t *testing.T) {
	// Aggregate = per-thread rate x thread count whenever Nt >= 1.
	f := func(ntRaw uint8) bool {
		nt := int(ntRaw)%8 + 1
		agg := IPSCore(500e6, nt)
		per := 500e6 / math.Max(4, float64(nt)) // Eq. 2's IPSt
		return math.Abs(agg-per*float64(nt)) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecutionBitRate(t *testing.T) {
	// One thread at 125 MIPS on 32-bit data: 4 Gbit/s (Section V-D).
	if got := ExecutionBitRate(IPSCore(500e6, 1)); math.Abs(got-4e9) > 1 {
		t.Errorf("single-thread E = %v, want 4e9", got)
	}
	// Four threads: 16 Gbit/s.
	if got := ExecutionBitRate(IPSCore(500e6, 4)); math.Abs(got-16e9) > 1 {
		t.Errorf("four-thread E = %v, want 16e9", got)
	}
}

func TestSwallowECTable(t *testing.T) {
	rows := swallowECTable()
	want := []float64{1, 16, 64, 256, 512}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		got := EC(r.EBps, r.CBps)
		if math.Abs(got-want[i])/want[i] > 0.01 {
			t.Errorf("%s: EC = %.1f, want %.0f", r.Name, got, want[i])
		}
		if r.Printed != want[i] {
			t.Errorf("%s: printed = %v, want %v", r.Name, r.Printed, want[i])
		}
	}
}

func TestECEdgeCases(t *testing.T) {
	if !math.IsInf(EC(1, 0), 1) {
		t.Error("EC with zero comm should be +Inf")
	}
}

func TestLinearFitRecoversEq1(t *testing.T) {
	// Points generated from Eq. 1 must fit back to 0.30/46 exactly.
	var xs, ys []float64
	for f := 71.0; f <= 500; f += 13 {
		xs = append(xs, f)
		ys = append(ys, 46+0.30*f)
	}
	slope, intercept, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-0.30) > 1e-9 || math.Abs(intercept-46) > 1e-6 {
		t.Errorf("fit = %vf + %v", slope, intercept)
	}
	if r2 < 0.999999 {
		t.Errorf("r2 = %v", r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, _, _, err := LinearFit([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestLinearFitConstantY(t *testing.T) {
	_, _, r2, err := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil || r2 != 1 {
		t.Errorf("constant y: r2=%v err=%v", r2, err)
	}
}

// Section V-D's published analysis points for Swallow at 500 MHz.
type ecAnalysis struct {
	Name    string
	EBps    float64
	CBps    float64
	Printed float64 // the ratio as printed in the paper
}

// swallowECTable regenerates the Section V-D worked examples:
// a core with >= 4 threads executes 500 MIPS x 32 bit = 16 Gbit/s.
func swallowECTable() []ecAnalysis {
	e := ExecutionBitRate(IPSCore(500e6, 4)) // 16 Gbit/s
	return []ecAnalysis{
		{"core-local", e, e, 1},
		{"package-internal (4 links)", e, 4 * 250e6, 16},
		{"external links (4 x 62.5M)", e, 4 * 62.5e6, 64},
		{"one external link, 4 threads", e, 62.5e6, 256},
		{"slice bisection (8 cores)", 8 * e, 4 * 62.5e6, 512},
	}
}
