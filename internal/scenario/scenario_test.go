package scenario

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/harness"
)

// quickConfig is the short settling window the compiled-run tests
// render under.
func quickConfig() harness.Config { return harness.Config{Iters: 5000} }

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
		{"workload threads 0", func(s *Spec) {
			s.Workload = Workload{Structure: "load", Threads: intp(0)}
		}, "workload.threads: 0"},
		{"workload threads 9", func(s *Spec) {
			s.Workload = Workload{Structure: "load", Threads: intp(9)}
		}, "workload.threads: 9"},
		{"threads axis 0", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Sweep = []Axis{{Param: "threads", Ints: []int{4, 0}}}
		}, "threads 0 outside"},
		{"threads axis 9", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Sweep = []Axis{{Param: "threads", Ints: []int{9}}}
		}, "threads 9 outside"},
		{"threads axis on pipeline", func(s *Spec) {
			s.Workload = Workload{Structure: "pipeline", Items: 10,
				Placement: &Placement{Policy: "column", Count: 3}}
			s.Sweep = []Axis{{Param: "threads", Ints: []int{4}}}
		}, "threads axis needs the load structure"},
		{"mips on traffic", func(s *Spec) { s.Measure = "mips" }, `measure: "mips" does not apply`},
		{"energy on load", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Measure = "energy"
		}, `measure: "energy" does not apply`},
		{"rail_power across two rails", func(s *Spec) {
			s.Workload = Workload{Structure: "load", Placement: &Placement{Nodes: []NodeRef{
				{X: 0, Y: 0, Layer: "V"}, {X: 0, Y: 1, Layer: "V"}}}}
			s.Measure = "rail_power"
		}, "spans two rails"},
		{"rail_power without placement", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Measure = "rail_power"
		}, "workload.placement: rail_power"},
		{"link_energy on load", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Measure = "link_energy"
		}, `measure: "link_energy" does not apply`},
		{"bridge_rate on load", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Measure = "bridge_rate"
		}, `measure: "bridge_rate" does not apply`},
		{"boot_cost on traffic", func(s *Spec) { s.Measure = "boot_cost" }, `measure: "boot_cost" does not apply`},
		{"adc_rates on traffic", func(s *Spec) { s.Measure = "adc_rates" }, `measure: "adc_rates" does not apply`},
		{"flows on bridge_rate", func(s *Spec) { s.Measure = "bridge_rate" }, "bridge_rate streams from the grid's bridge"},
		{"variant flows on bridge_rate", func(s *Spec) {
			s.Sweep = []Axis{{Param: "cap", Variants: []Variant{{Name: "a", Flows: s.Workload.Flows}}}}
			s.Workload.Flows = nil
			s.Measure = "bridge_rate"
		}, "takes no flows"},
		{"unknown measure", func(s *Spec) { s.Measure = "watts" },
			`measure: unknown measure "watts" (have aggregate_goodput, bridge_rate, ec, goodput_fraction, link_energy)`},
		{"ratio on latency", func(s *Spec) {
			s.Workload = Workload{Structure: "ping", A: &NodeRef{Layer: "V"}, B: &NodeRef{Layer: "H"}}
			s.Measure = "latency"
			s.Table = &Table{Ratio: "x"}
		}, "table.value/ratio"},
		{"value on energy", func(s *Spec) {
			s.Workload = Workload{Structure: "ring", Placement: &Placement{Policy: "column", Count: 2}}
			s.Table = &Table{Value: "x"}
		}, "table.value/ratio"},
		{"label on goodput_fraction", func(s *Spec) {
			s.Workload.Flows[0].Tokens, s.Workload.Flows[0].TokensPerUnit = 0, 1
			s.Sweep = []Axis{{Param: "payload", Ints: []int{8}}}
			s.Measure = "goodput_fraction"
			s.Table = &Table{Label: "x"}
		}, "table.label"},
		{"label on a clock-swept core_power", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Sweep = []Axis{{Param: "freq_mhz", Floats: []float64{250, 500}}}
			s.Measure = "core_power"
			s.Table = &Table{Label: "x"}
		}, "table.label"},
		{"label on a one-point boot_cost", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Sweep = []Axis{{Param: "freq_mhz", Floats: []float64{500}}}
			s.Measure = "boot_cost"
			s.Table = &Table{Label: "x"}
		}, "table.label"},
		{"threads axis on boot_cost", func(s *Spec) {
			s.Workload = Workload{Structure: "load"}
			s.Measure = "boot_cost"
			s.Sweep = []Axis{{Param: "threads", Ints: []int{1, 4}}}
		}, "threads axis does not apply to boot_cost"},
		{"too many points", func(s *Spec) {
			ints := make([]int, 300)
			for i := range ints {
				ints[i] = 1 + i%4
			}
			s.Sweep = []Axis{{Param: "links", Ints: ints}}
		}, "points exceed"},
		{"points product past 2^64", func(s *Spec) {
			// 2^17 * 2^17 * 2^17 * 2^13 wraps a 64-bit product to 0: the
			// bound must hold axis by axis, not on the wrapped total.
			ones := func(n int) []int {
				v := make([]int, n)
				for i := range v {
					v[i] = 1
				}
				return v
			}
			freqs := make([]float64, 1<<17)
			for i := range freqs {
				freqs[i] = 500
			}
			variants := make([]Variant, 1<<13)
			for i := range variants {
				variants[i].Name = strconv.Itoa(i)
			}
			s.Sweep = []Axis{
				{Param: "links", Ints: ones(1 << 17)},
				{Param: "payload", Ints: ones(1 << 17)},
				{Param: "freq_mhz", Floats: freqs},
				{Param: "v", Variants: variants},
			}
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

func intp(n int) *int { return &n }

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
		// The label column shows where the layout has one: a boot_cost
		// of several points, a core_power swept over more than the clock.
		{
			Name:     "boots",
			Grid:     Grid{SlicesX: 1, SlicesY: 1},
			Workload: Workload{Structure: "load"},
			Sweep:    []Axis{{Param: "freq_mhz", Floats: []float64{250, 500}}},
			Measure:  "boot_cost",
			Table:    &Table{Label: "clock"},
		},
		{
			Name:     "threads",
			Grid:     Grid{SlicesX: 1, SlicesY: 1},
			Workload: Workload{Structure: "load"},
			Sweep:    []Axis{{Param: "threads", Ints: []int{1, 4}}},
			Measure:  "core_power",
			Table:    &Table{Label: "threads"},
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
// structures, axes and operating points no canonical artifact covers.
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
		if res.Points[0].Value("elapsed") <= res.Points[1].Value("elapsed") {
			t.Fatalf("250 MHz ring (%gs) not slower than 500 MHz (%gs)",
				res.Points[0].Value("elapsed"), res.Points[1].Value("elapsed"))
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
			if got := res.Points[i].Value("items"); got != float64(want) {
				t.Fatalf("point %d items = %g, want %d", i, got, want)
			}
			if res.Points[i].Value("elapsed") == 0 || res.Points[i].Value("core_energy") <= 0 {
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
		if len(res.Points) != 2 || res.Points[0].Value("elapsed") >= res.Points[1].Value("elapsed") {
			t.Fatalf("more rounds must take longer: %+v", res.Points)
		}
	})
	// A load is read at any operating point, grid or placement: Fig. 2
	// on two slices at half clock, Fig. 3's rail two package rows up.
	quick := func(t *testing.T, s Spec) Point {
		t.Helper()
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != 1 || res.Extra != nil {
			t.Fatalf("%d points, extra rows %v; want one point and no fit", len(res.Points), res.Extra)
		}
		if rows := len(c.Render(res).Rows); rows == 0 {
			t.Fatal("empty render")
		}
		return res.Points[0]
	}
	t.Run("budget on 2x1 at 250 MHz", func(t *testing.T) {
		budget := func(slicesX int) Point {
			return quick(t, Spec{
				Name:     "budget",
				Grid:     Grid{SlicesX: slicesX, SlicesY: 1},
				Workload: Workload{Structure: "load"},
				Sweep:    []Axis{{Param: "freq_mhz", Floats: []float64{250}}},
				Measure:  "budget",
			})
		}
		two, one := budget(2), budget(1)
		node := two.Value("node")
		if two.Value("compute") <= 0 || node != two.Value("compute")+two.Value("background")+two.Value("conversion")+two.Value("support")+two.Value("link") {
			t.Fatalf("2x1 wedges %+v", two)
		}
		// Every core carries the same load, so the per-node budget does
		// not depend on how many slices share it.
		if math.Abs(node-one.Value("node")) > 0.01*one.Value("node") {
			t.Errorf("per-node total %.1f mW on 2x1, %.1f mW on 1x1", node*1e3, one.Value("node")*1e3)
		}
	})
	t.Run("rail_power on rail 2", func(t *testing.T) {
		rail := func(y int) Point {
			return quick(t, Spec{
				Name: "rail",
				Grid: Grid{SlicesX: 1, SlicesY: 1},
				Workload: Workload{Structure: "load", Placement: &Placement{Nodes: []NodeRef{
					{X: 0, Y: y, Layer: "V"}, {X: 0, Y: y, Layer: "H"},
					{X: 1, Y: y, Layer: "V"}, {X: 1, Y: y, Layer: "H"},
				}}},
				Sweep:   []Axis{{Param: "freq_mhz", Floats: []float64{500}}},
				Measure: "rail_power",
			})
		}
		two, zero := rail(2), rail(0)
		// The rail read is the one that carries the load: it draws what
		// Fig. 3's rail 0 draws, well above the idle rail.
		loaded, idle, zeroLoaded := two.Value("rail_power"), two.Value("idle_power"), zero.Value("rail_power")
		if math.Abs(loaded-zeroLoaded) > 0.01*zeroLoaded || loaded < 1.2*idle {
			t.Errorf("rail 2 reads %.3f W loaded, %.3f W idle; rail 0 %.3f W loaded", loaded, idle, zeroLoaded)
		}
	})
	// The instruments too: Table I's reading on a route its spec does
	// not use, a boot of two cores at half clock, the bridge of a 2x2
	// grid.
	t.Run("link_energy on a one-hop vertical route", func(t *testing.T) {
		p := quick(t, Spec{
			Name: "link",
			Grid: Grid{SlicesX: 1, SlicesY: 1},
			Workload: Workload{Structure: "traffic", Flows: []FlowSpec{{
				Src: NodeRef{X: 1, Y: 2, Layer: "V"}, Dst: NodeRef{X: 1, Y: 3, Layer: "V"}, Tokens: 2048,
			}}},
			Sweep:   []Axis{{Param: "freq_mhz", Floats: []float64{250}}},
			Measure: "link_energy",
		})
		want := energy.LinkSpecs[energy.LinkBoardVertical].EnergyPerBit()
		class, perBit, busy := energy.LinkClass(p.Value("class")), p.Value("bit_energy"), p.Value("busy")
		if class != energy.LinkBoardVertical || math.Abs(perBit-want) > 0.01*want || busy < 0.99 {
			t.Errorf("%v at %.1f pJ/bit, busy %.3f; want on-board,vertical at %.1f, busy >= 0.99", class, perBit*1e12, busy, want*1e12)
		}
	})
	t.Run("boot_cost on two nodes at 250 MHz", func(t *testing.T) {
		boot := func(mhz float64, nodes ...NodeRef) Point {
			return quick(t, Spec{
				Name:     "boot",
				Grid:     Grid{SlicesX: 1, SlicesY: 1},
				Workload: Workload{Structure: "load", Placement: &Placement{Nodes: nodes}},
				Sweep:    []Axis{{Param: "freq_mhz", Floats: []float64{mhz}}},
				Measure:  "boot_cost",
			})
		}
		two := boot(250, NodeRef{X: 0, Y: 2, Layer: "V"}, NodeRef{X: 1, Y: 3, Layer: "H"})
		four := boot(500, NodeRef{Layer: "V"}, NodeRef{Layer: "H"}, NodeRef{X: 1, Layer: "V"}, NodeRef{X: 1, Layer: "H"})
		// Every core takes the same image, so two cores stream half the
		// bytes of Table I's four.
		if two.Value("image_bytes")*2 != four.Value("image_bytes") || two.Value("elapsed") <= 0 {
			t.Errorf("two cores at 250 MHz: %g bytes in %gs; four at 500 MHz: %g bytes",
				two.Value("image_bytes"), two.Value("elapsed"), four.Value("image_bytes"))
		}
	})
	t.Run("bridge_rate on a 2x2 grid", func(t *testing.T) {
		p := quick(t, Spec{
			Name:     "bridge",
			Grid:     Grid{SlicesX: 2, SlicesY: 2},
			Workload: Workload{Structure: "traffic"},
			Sweep:    []Axis{{Param: "freq_mhz", Floats: []float64{500}}},
			Measure:  "bridge_rate",
		})
		if rate := p.Value("goodput"); math.Abs(rate-80e6) > 0.01*80e6 {
			t.Errorf("2x2 bridge ingress %.3g bit/s, want its 80 Mbit/s cap", rate)
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
		if corners.Value("link_energy") <= local.Value("link_energy") {
			t.Fatalf("scattered pipeline link energy %g not above local %g",
				corners.Value("link_energy"), local.Value("link_energy"))
		}
	})
}

// TestLinkEnergyNeedsOneClass: flows that load two link classes are a
// spec fault, not a Table I row.
func TestLinkEnergyNeedsOneClass(t *testing.T) {
	c, err := Compile(Spec{
		Name: "two-classes",
		Grid: Grid{SlicesX: 1, SlicesY: 1},
		Workload: Workload{Structure: "traffic", Flows: []FlowSpec{
			{Src: NodeRef{Layer: "V"}, Dst: NodeRef{Layer: "H"}, Tokens: 256},
			{Src: NodeRef{Layer: "V"}, SrcEnd: 1, Dst: NodeRef{Y: 1, Layer: "V"}, Tokens: 256},
		}},
		Sweep:   []Axis{{Param: "links", Ints: []int{4}}},
		Measure: "link_energy",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(quickConfig())
	if !errors.Is(err, harness.ErrBadConfig) || !strings.Contains(err.Error(), "exactly one link class") {
		t.Fatalf("two-class flow set: %v, want a spec fault naming the classes", err)
	}
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
	cfg := quickConfig()
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
