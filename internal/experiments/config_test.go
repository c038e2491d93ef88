package experiments

import (
	"errors"
	"slices"
	"testing"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// regridded compiles and runs the named spec file after edit has
// changed its first sweep axis: a custom grid is the spec with its axis
// edited, not a run-time override.
func regridded(t *testing.T, name string, edit func(ax *scenario.Axis)) ([]scenario.Point, error) {
	t.Helper()
	s := spec(name)
	edit(&s.Sweep[0])
	c, err := scenario.Compile(s)
	if err != nil {
		return nil, err
	}
	res, err := c.Run(harness.Config{Iters: 1})
	if err != nil {
		return nil, err
	}
	return res.Points, nil
}

// TestLatencyPlacementOverride covers a subset of the Section V-C
// placements: the latency spec with variants taken out renders exactly
// the ones left, in the spec's order, and a placement the spec does not
// describe (a bare name, no endpoints) fails loudly.
func TestLatencyPlacementOverride(t *testing.T) {
	var names []string
	for _, v := range spec("latency").Sweep[0].Variants {
		names = append(names, v.Name)
	}
	if len(names) != 4 || names[0] != "core-local word" {
		t.Fatalf("canonical placements = %v", names)
	}
	keep := func(want ...string) func(ax *scenario.Axis) {
		return func(ax *scenario.Axis) {
			ax.Variants = slices.DeleteFunc(ax.Variants, func(v scenario.Variant) bool {
				return !slices.Contains(want, v.Name)
			})
		}
	}
	rows, err := regridded(t, "latency", keep(names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Label != names[0] {
		t.Fatalf("subset rows = %+v", rows)
	}
	// Order is the spec's regardless of the order the subset is named in.
	rows, err = regridded(t, "latency", keep(names[1], names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Label != names[0] || rows[1].Label != names[1] {
		t.Fatalf("subset must render in the spec's order: %+v", rows)
	}
	// A placement named but not described is a 400-class error, not a
	// silent skip.
	_, err = regridded(t, "latency", func(ax *scenario.Axis) {
		ax.Variants = []scenario.Variant{{Name: "nowhere"}}
	})
	if !errors.Is(err, harness.ErrBadConfig) {
		t.Fatalf("undescribed placement: err = %v, want ErrBadConfig", err)
	}
}

// TestGoodputGridOverride covers a custom payload grid: the goodput
// spec with its ints edited renders exactly that grid; the spec's own
// grid stays the canonical Section V-B one, held byte-identical by the
// golden test.
func TestGoodputGridOverride(t *testing.T) {
	points, err := regridded(t, "goodput", func(ax *scenario.Axis) { ax.Ints = []int{4} })
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Value("payload") != 4 {
		t.Fatalf("edited grid rendered %+v", points)
	}
}
