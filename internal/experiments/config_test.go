package experiments

import (
	"testing"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// TestLatencyPlacementOverride covers the Config sweep-grid plumbing:
// API callers may request a subset of the Section V-C placements, in
// canonical order, and unknown names fail loudly.
func TestLatencyPlacementOverride(t *testing.T) {
	var names []string
	for _, v := range LatencyScenario().Sweep[0].Variants {
		names = append(names, v.Name)
	}
	if len(names) != 4 || names[0] != "core-local word" {
		t.Fatalf("canonical placements = %v", names)
	}
	a := harness.Lookup("latency")
	res, err := a.Run(harness.Config{Iters: 1, LatencyPlacements: []string{names[0]}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.(*scenario.Result).Points
	if len(rows) != 1 || rows[0].Label != names[0] {
		t.Fatalf("filtered rows = %+v", rows)
	}
	// Order is canonical regardless of request order.
	res, err = a.Run(harness.Config{Iters: 1, LatencyPlacements: []string{names[1], names[0]}})
	if err != nil {
		t.Fatal(err)
	}
	rows = res.(*scenario.Result).Points
	if len(rows) != 2 || rows[0].Label != names[0] || rows[1].Label != names[1] {
		t.Fatalf("reordered request must render canonically: %+v", rows)
	}
	// An unknown name is a 400-class error, not a silent skip.
	if _, err := a.Run(harness.Config{LatencyPlacements: []string{"nowhere"}}); err == nil {
		t.Fatal("unknown placement accepted by compiled scenario")
	}
}

// TestGoodputGridOverride covers the payload-grid override; the
// default (nil) grid stays the canonical Section V-B one, held
// byte-identical by the golden test.
func TestGoodputGridOverride(t *testing.T) {
	a := harness.Lookup("goodput")
	res, err := a.Run(harness.Config{Iters: 1, GoodputPayloads: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	points := res.(*scenario.Result).Points
	if len(points) != 1 || points[0].Value("payload") != 4 {
		t.Fatalf("override grid rendered %+v", points)
	}
}
