package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
)

// validTraffic is a minimal correct spec the bad-spec table mutates.
func validTraffic() Spec {
	return Spec{
		Name: "t",
		Grid: Grid{SlicesX: 1, SlicesY: 1},
		Workload: Workload{
			Structure: "traffic",
			Flows: []FlowSpec{{
				Src:    NodeRef{X: 0, Y: 0, Layer: "V"},
				Dst:    NodeRef{X: 0, Y: 0, Layer: "H"},
				Tokens: 500,
			}},
		},
		Sweep: []Axis{{Param: "links", Ints: []int{1, 4}}},
	}
}

// TestValidationRejectsBadSpecs is the hardening table: every
// malformed spec must fail validation with harness.ErrBadConfig (the
// service's HTTP 400 class) and a message naming the offending field.
func TestValidationRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantMsg string
	}{
		{"unknown structure", func(s *Spec) { s.Workload.Structure = "blob" }, "workload.structure"},
		{"zero grid", func(s *Spec) { s.Grid = Grid{} }, "grid"},
		{"absurd grid", func(s *Spec) { s.Grid = Grid{SlicesX: 50, SlicesY: 50} }, "grid"},
		{"no sweep axes", func(s *Spec) { s.Sweep = nil }, "sweep"},
		{"empty sweep axis", func(s *Spec) { s.Sweep = []Axis{{Param: "links"}} }, "empty axis"},
		{"axis with two kinds", func(s *Spec) {
			s.Sweep = []Axis{{Param: "links", Ints: []int{1}, Floats: []float64{100}}}
		}, "exactly one"},
		{"unknown int param", func(s *Spec) { s.Sweep = []Axis{{Param: "wat", Ints: []int{1}}} }, "unknown int axis param"},
		{"links out of range", func(s *Spec) { s.Sweep = []Axis{{Param: "links", Ints: []int{9}}} }, "links 9"},
		{"payload out of range", func(s *Spec) {
			s.Sweep = []Axis{{Param: "payload", Ints: []int{0}}}
		}, "payload 0"},
		{"placement off-grid", func(s *Spec) { s.Workload.Flows[0].Src.X = 9 }, "outside the"},
		{"bad layer letter", func(s *Spec) { s.Workload.Flows[0].Dst.Layer = "Q" }, "layer"},
		{"bad channel end", func(s *Spec) { s.Workload.Flows[0].SrcEnd = 99 }, "channel end 99"},
		{"flow without tokens", func(s *Spec) { s.Workload.Flows[0].Tokens = 0 }, "tokens"},
		{"undrainable flow (src == dst end)", func(s *Spec) {
			s.Workload.Flows[0].Dst = s.Workload.Flows[0].Src
		}, "same channel end"},
		{"payload scaling without payload axis", func(s *Spec) {
			s.Workload.Flows[0].PacketFromAxis = true
		}, "payload axis"},
		{"traffic without flows", func(s *Spec) { s.Workload.Flows = nil }, "needs flows"},
		{"measure mismatch", func(s *Spec) { s.Measure = "latency" }, "does not apply"},
		{"goodput_fraction without payload axis", func(s *Spec) { s.Measure = "goodput_fraction" }, "payload axis"},
		{"ec without regimes", func(s *Spec) { s.Measure = "ec" }, "variants axis"},
		{"ping without endpoints", func(s *Spec) {
			s.Workload = Workload{Structure: "ping"}
		}, "endpoints"},
		{"pipeline too short", func(s *Spec) {
			s.Workload = Workload{Structure: "pipeline", Items: 10,
				Placement: &Placement{Policy: "column", Count: 2}}
		}, "pipeline needs"},
		{"pipeline without placement", func(s *Spec) {
			s.Workload = Workload{Structure: "pipeline", Items: 10}
		}, "placement"},
		{"group too wide", func(s *Spec) {
			s.Workload = Workload{Structure: "group", Rounds: 2,
				Placement: &Placement{Policy: "scatter", Count: 12}}
		}, "at most 8 members"},
		{"unknown placement policy", func(s *Spec) {
			s.Workload = Workload{Structure: "ring",
				Placement: &Placement{Policy: "diagonal", Count: 4}}
		}, "policy"},
		{"nodes and policy both", func(s *Spec) {
			s.Workload = Workload{Structure: "ring",
				Placement: &Placement{Policy: "column", Count: 2,
					Nodes: []NodeRef{{Layer: "V"}, {Layer: "H"}}}}
		}, "exclusive"},
		{"duplicate placement nodes", func(s *Spec) {
			s.Workload = Workload{Structure: "ring",
				Placement: &Placement{Nodes: []NodeRef{{Layer: "V"}, {Layer: "V"}}}}
		}, "duplicate node"},
		{"duplicate variant names", func(s *Spec) {
			s.Sweep = []Axis{{Param: "v", Variants: []Variant{{Name: "a"}, {Name: "a"}}}}
		}, "duplicate variant"},
		{"variant without name", func(s *Spec) {
			s.Sweep = []Axis{{Param: "v", Variants: []Variant{{}}}}
		}, "needs a name"},
		{"from_config on wrong axis", func(s *Spec) {
			s.Sweep = []Axis{{Param: "links", FromConfig: "latency_placements", Ints: []int{1}}}
		}, "from_config"},
		{"bad operating links", func(s *Spec) { s.Operating = &Operating{Links: "turbo"} }, "operating.links"},
		{"bad operating freq", func(s *Spec) { s.Operating = &Operating{CoreMHz: 9999} }, "core_mhz"},
		{"negative operating freq", func(s *Spec) { s.Operating = &Operating{CoreMHz: -100} }, "core_mhz"},
		{"negative operating vdd", func(s *Spec) { s.Operating = &Operating{VDD: -1} }, "vdd"},
		{"duplicate axis param", func(s *Spec) {
			s.Sweep = []Axis{{Param: "links", Ints: []int{1, 4}}, {Param: "links", Ints: []int{2}}}
		}, "duplicate axis param"},
		{"too many points", func(s *Spec) {
			ints := make([]int, 300)
			for i := range ints {
				ints[i] = 1 + i%4
			}
			s.Sweep = []Axis{{Param: "links", Ints: ints}}
		}, "points exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validTraffic()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("spec accepted")
			}
			if !errors.Is(err, harness.ErrBadConfig) {
				t.Fatalf("error %v is not ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not name the field (want %q)", err, tc.wantMsg)
			}
			if _, cerr := Compile(s); cerr == nil {
				t.Fatal("Compile accepted the bad spec")
			}
		})
	}
}

// TestParseRejectsUnknownFields: typo'd knobs are 400s, not silent
// no-ops.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"grid":{"slices_x":1,"slices_y":1},"wrokload":{}}`))
	if err == nil || !errors.Is(err, harness.ErrBadConfig) {
		t.Fatalf("unknown field accepted: %v", err)
	}
	blob, merr := json.Marshal(validTraffic())
	if merr != nil {
		t.Fatal(merr)
	}
	_, err = Parse(append(blob, " {}"...))
	if err == nil || !errors.Is(err, harness.ErrBadConfig) {
		t.Fatalf("trailing data accepted: %v", err)
	}
}

// TestRoundTripHashStable: Spec -> JSON -> Spec -> Hash is the
// identity the service cache keys on.
func TestRoundTripHashStable(t *testing.T) {
	specs := []Spec{
		validTraffic(),
		{
			Name: "pipe",
			Grid: Grid{SlicesX: 2, SlicesY: 2},
			Workload: Workload{Structure: "pipeline", Items: 50,
				Placement: &Placement{Policy: "scatter", Count: 5}},
			Operating: &Operating{CoreMHz: 250, Links: "max"},
			Sweep:     []Axis{{Param: "freq_mhz", Floats: []float64{125, 500}}},
			Table:     &Table{Title: "pipe sweep", Label: "freq"},
		},
		{
			Name: "ping",
			Grid: Grid{SlicesX: 1, SlicesY: 1},
			Workload: Workload{Structure: "ping",
				A: &NodeRef{Layer: "V"}, B: &NodeRef{Y: 1, Layer: "H"}},
			Sweep: []Axis{{Param: "rounds", Ints: []int{8, 16}}},
		},
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		h1 := s.Hash()
		blob, err := json.Marshal(s.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Parse(blob)
		if err != nil {
			t.Fatalf("%s: reparse: %v", s.Name, err)
		}
		if h2 := s2.Hash(); h2 != h1 {
			t.Fatalf("%s: hash changed over round trip: %s -> %s", s.Name, h1, h2)
		}
		// Equivalent spellings share the identity: defaults spelled out
		// explicitly hash the same as left empty.
		explicit := s
		explicit.Operating = s.Canonical().Operating
		if explicit.Hash() != h1 {
			t.Fatalf("%s: explicit defaults changed the hash", s.Name)
		}
	}
	if validTraffic().Hash() == (Spec{}).Canonical().Hash() {
		t.Fatal("distinct specs share a hash")
	}
}

// TestConfigOverrideReBounded: a harness.Config grid override replaces
// an axis wholesale, so Run must re-check the point bound the spec's
// own grid passed at Validate time.
func TestConfigOverrideReBounded(t *testing.T) {
	s := validTraffic()
	s.Workload.Flows[0].Tokens = 0
	s.Workload.Flows[0].TokensPerUnit = 1
	s.Workload.Flows[0].PacketFromAxis = true
	s.Sweep = []Axis{{Param: "payload", FromConfig: "goodput_payloads", Ints: []int{4, 8}}}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]int, MaxPoints+1)
	for i := range huge {
		huge[i] = 1 + i%64
	}
	_, err = c.Run(harness.Config{GoodputPayloads: huge})
	if err == nil || !errors.Is(err, harness.ErrBadConfig) {
		t.Fatalf("oversized payload override accepted: %v", err)
	}
}

// compileAndRun compiles and runs a spec with the default config.
func compileAndRun(t *testing.T, s Spec) *Result {
	t.Helper()
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(harness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if table := c.Render(res); len(table.Rows) != len(res.Points) {
		t.Fatalf("render rows %d != points %d", len(table.Rows), len(res.Points))
	}
	return res
}

// TestNovelStructuresRun exercises the open-set side of the compiler:
// program structures and axes no hand-written artifact covers.
func TestNovelStructuresRun(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		res := compileAndRun(t, Spec{
			Name: "ring4",
			Grid: Grid{SlicesX: 1, SlicesY: 1},
			Workload: Workload{Structure: "ring",
				Placement: &Placement{Policy: "column", Count: 4}},
			Sweep: []Axis{{Param: "freq_mhz", Floats: []float64{250, 500}}},
		})
		if len(res.Points) != 2 {
			t.Fatalf("points = %d", len(res.Points))
		}
		// Halving the clock must slow the ring down.
		if res.Points[0].Elapsed <= res.Points[1].Elapsed {
			t.Fatalf("250 MHz ring (%v) not slower than 500 MHz (%v)",
				res.Points[0].Elapsed, res.Points[1].Elapsed)
		}
	})
	t.Run("farm", func(t *testing.T) {
		res := compileAndRun(t, Spec{
			Name: "farm",
			Grid: Grid{SlicesX: 1, SlicesY: 1},
			Workload: Workload{Structure: "farm", Items: 8,
				Placement: &Placement{Policy: "column", Count: 3}},
			Sweep: []Axis{{Param: "items", Ints: []int{4, 8}}},
		})
		for i, want := range []int{4, 8} {
			if res.Points[i].Items != want {
				t.Fatalf("point %d items = %d, want %d", i, res.Points[i].Items, want)
			}
			if res.Points[i].Elapsed == 0 || res.Points[i].CoreJ <= 0 {
				t.Fatalf("point %d unmeasured: %+v", i, res.Points[i])
			}
		}
	})
	t.Run("group", func(t *testing.T) {
		res := compileAndRun(t, Spec{
			Name: "group",
			Grid: Grid{SlicesX: 1, SlicesY: 1},
			Workload: Workload{Structure: "group", Rounds: 3,
				Placement: &Placement{Policy: "scatter", Count: 4}},
			Sweep: []Axis{{Param: "rounds", Ints: []int{2, 3}}},
		})
		if len(res.Points) != 2 || res.Points[0].Elapsed >= res.Points[1].Elapsed {
			t.Fatalf("more rounds must take longer: %+v", res.Points)
		}
	})
	t.Run("pipeline placement variants", func(t *testing.T) {
		res := compileAndRun(t, Spec{
			Name: "pipe-placement",
			Grid: Grid{SlicesX: 2, SlicesY: 2},
			Workload: Workload{Structure: "pipeline", Items: 40,
				Placement: &Placement{Policy: "column", Count: 5}},
			Sweep: []Axis{{Param: "placement", Variants: []Variant{
				{Name: "local"}, // base column placement
				{Name: "corners", Nodes: []NodeRef{
					{X: 0, Y: 0, Layer: "V"}, {X: 3, Y: 7, Layer: "H"},
					{X: 0, Y: 7, Layer: "V"}, {X: 3, Y: 0, Layer: "H"},
					{X: 1, Y: 4, Layer: "V"},
				}},
			}}},
		})
		local, corners := res.Points[0], res.Points[1]
		if corners.LinkJ <= local.LinkJ {
			t.Fatalf("scattered pipeline link energy %g not above local %g",
				corners.LinkJ, local.LinkJ)
		}
	})
}

// TestCompiledParallelMatchesSerial holds the compiler to the
// parallel-sweep contract on a cross-product sweep.
func TestCompiledParallelMatchesSerial(t *testing.T) {
	s := Spec{
		Name: "xprod",
		Grid: Grid{SlicesX: 1, SlicesY: 1},
		Workload: Workload{
			Structure: "traffic",
			Flows: []FlowSpec{{
				Src: NodeRef{Layer: "V"}, Dst: NodeRef{Layer: "H"},
				TokensPerUnit: 60, PacketFromAxis: true,
			}},
		},
		Sweep: []Axis{
			{Param: "links", Ints: []int{1, 4}},
			{Param: "payload", Ints: []int{8, 28}},
		},
		Measure: "goodput_fraction",
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.QuickConfig()
	cfg.Env = &core.Env{Pool: core.SharedPool(), Width: 1}
	serial, err := c.Artifact.Table(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Env = &core.Env{Pool: core.SharedPool(), Width: 16}
	parallel, err := c.Artifact.Table(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel diverges from serial:\n%s\n---\n%s", serial, parallel)
	}
	if got := len(serial.Rows); got != 4 {
		t.Fatalf("cross product rendered %d rows, want 4", got)
	}
}
