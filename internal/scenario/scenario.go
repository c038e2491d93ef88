// Package scenario is the declarative layer over the experiment
// stack: a Spec names a machine grid, a workload structure from
// internal/workload (traffic flows read as goodput or link energy, or
// the Ethernet bridge's stream; ping-pong probes; pipelines, rings,
// client/server farms and barrier groups; or a load read as
// instruction rate, core power, rail power, energy budget, network-boot
// cost or ADC sampling limits), a placement (explicit nodes or an
// internal/topo policy), an operating point, and one or more sweep
// axes with explicit grids. Compile validates a Spec and lowers it into
// a harness.Artifact whose inner loop runs one machine per sweep point
// through sweep.MapWarm under the run's core.Env — the parallel-sweep
// and pooling contracts every artifact obeys, so compiled scenarios
// render byte-identically under every Env.
//
// Specs are JSON-serialisable with a canonical normal form: Canonical
// fills structural defaults and normalises empty slices, and Hash is
// the sha256 of the canonical encoding, so semantically identical
// specs — however spelled — share one identity. The HTTP service keys
// its result cache on that hash, which is what turns the experiment
// surface from a closed registry into an open one: any client can
// submit a novel workload x topology x sweep combination and get the
// same caching, deduplication and determinism guarantees as the
// canonical tables.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/noc"
	"swallow/internal/topo"
	"swallow/internal/xs1"
)

// Resource-safety bounds for user-submitted specs: validation rejects
// anything beyond them with harness.ErrBadConfig (HTTP 400), keeping a
// single POST /scenarios from tying up the service with an absurd
// simulation.
const (
	// MaxSlices bounds the machine grid (the paper's full machine is 30).
	MaxSlices = 36
	// MaxPoints bounds the sweep cross product.
	MaxPoints = 256
	// MaxFlows bounds the traffic flow set per point.
	MaxFlows = 64
	// MaxTokens bounds one flow's token budget per point.
	MaxTokens = 1 << 20
	// MaxItems bounds pipeline/farm workload sizes.
	MaxItems = 20000
	// MaxRounds bounds ping and barrier round counts.
	MaxRounds = 4096
	// MaxNodes bounds placement node lists.
	MaxNodes = 64
)

// Grid is the machine shape in slice boards.
type Grid struct {
	SlicesX int `json:"slices_x"`
	SlicesY int `json:"slices_y"`
}

// NodeRef names one core by package-grid coordinates and layer letter
// ("V" or "H"), the JSON form of topo.NodeID.
type NodeRef struct {
	X     int    `json:"x"`
	Y     int    `json:"y"`
	Layer string `json:"layer"`
}

// ID converts the reference to its topo node. Only valid after
// validation (Layer must be "V" or "H" and coordinates in range).
func (n NodeRef) ID() topo.NodeID {
	l := topo.LayerV
	if n.Layer == "H" {
		l = topo.LayerH
	}
	return topo.MakeNodeID(n.X, n.Y, l)
}

// Ref is the inverse of ID, for building specs from topo nodes.
func Ref(n topo.NodeID) NodeRef {
	return NodeRef{X: n.X(), Y: n.Y(), Layer: n.Layer().String()}
}

// check validates the reference against a system grid.
func (n NodeRef) check(sys topo.System, field string) error {
	if n.Layer != "V" && n.Layer != "H" {
		return badf("%s: layer %q is not \"V\" or \"H\"", field, n.Layer)
	}
	if n.X < 0 || n.Y < 0 || n.X >= sys.Width() || n.Y >= sys.Height() {
		return badf("%s: node (%d,%d) outside the %dx%d package grid",
			field, n.X, n.Y, sys.Width(), sys.Height())
	}
	return nil
}

// FlowSpec is one host-driven token stream of a traffic workload.
// Tokens may be given literally or scaled by a payload axis:
// TokensPerUnit multiplies the point's payload value, and
// PacketFromAxis sets the per-packet payload from the axis, the shape
// of the Section V-B goodput sweep.
type FlowSpec struct {
	Src            NodeRef `json:"src"`
	SrcEnd         int     `json:"src_end,omitempty"`
	Dst            NodeRef `json:"dst"`
	DstEnd         int     `json:"dst_end,omitempty"`
	Tokens         int     `json:"tokens,omitempty"`
	TokensPerUnit  int     `json:"tokens_per_unit,omitempty"`
	PacketTokens   int     `json:"packet_tokens,omitempty"`
	PacketFromAxis bool    `json:"packet_from_axis,omitempty"`
}

// Placement maps a program structure's tasks onto cores: either an
// explicit node list or a topo placement policy applied to the grid.
type Placement struct {
	// Policy is a topo.PlacementPolicy name (column, row, scatter,
	// corners); Count is how many cores it places.
	Policy string `json:"policy,omitempty"`
	Count  int    `json:"count,omitempty"`
	// Nodes is the explicit alternative; exclusive with Policy.
	Nodes []NodeRef `json:"nodes,omitempty"`
}

// Workload selects the parallel program structure of Section I and its
// parameters. Structure-specific fields are ignored by the others.
type Workload struct {
	// Structure is one of traffic, ping, pipeline, ring, farm, group,
	// load.
	Structure string `json:"structure"`
	// Flows drive the traffic structure (channel-end level streams).
	Flows []FlowSpec `json:"flows,omitempty"`
	// A and B are the ping endpoints; A == B measures the core-local
	// thread-to-thread latency.
	A *NodeRef `json:"a,omitempty"`
	B *NodeRef `json:"b,omitempty"`
	// Rounds is the ping round count or barrier-group round count.
	Rounds int `json:"rounds,omitempty"`
	// Items is the pipeline workload size or per-client farm requests.
	Items int `json:"items,omitempty"`
	// Placement places pipeline stages, ring members, farm
	// [server, clients...], group [root, members...] or the load's
	// cores (every core when absent).
	Placement *Placement `json:"placement,omitempty"`
	// Threads is the load's thread count per core, 1-8 (default 4).
	Threads *int `json:"threads,omitempty"`
	// Boot loads the program structure by genuine nOS network boot
	// through the Ethernet bridge instead of the host debug path: every
	// task image is streamed over the simulated network at the spec's
	// base operating point, the machine is then retuned to the point's
	// operating point (modelling DFS after a common boot), and the
	// structure runs. Boot applies to the program structures only. The
	// boot prefix is identical for every point that shares the same
	// images, which is what lets warm-start sweeps snapshot it once and
	// restore per point.
	Boot bool `json:"boot,omitempty"`
}

// Operating is the machine operating point a scenario runs at.
type Operating struct {
	// CoreMHz and VDD override the 500 MHz / 1.0 V defaults.
	CoreMHz float64 `json:"core_mhz,omitempty"`
	VDD     float64 `json:"vdd,omitempty"`
	// Links selects the link timing set: "operating" (Table I rates,
	// the default) or "max" (Section V-C maximum rates).
	Links string `json:"links,omitempty"`
}

// Variant is one named point of a variants axis: a label plus
// workload overrides and paper-value annotations. Empty override
// fields keep the base workload's values.
type Variant struct {
	Name  string     `json:"name"`
	Flows []FlowSpec `json:"flows,omitempty"`
	A     *NodeRef   `json:"a,omitempty"`
	B     *NodeRef   `json:"b,omitempty"`
	Nodes []NodeRef  `json:"nodes,omitempty"`
	// EMult scales the execution rate of the ec measure (cores driving
	// the regime); 0 means 1.
	EMult float64 `json:"e_mult,omitempty"`
	// Paper annotations carried into renders.
	PaperEC     float64 `json:"paper_ec,omitempty"`
	PaperNS     float64 `json:"paper_ns,omitempty"`
	PaperInstrs float64 `json:"paper_instrs,omitempty"`
}

// Axis is one sweep dimension with an explicit grid: exactly one of
// Ints, Floats or Variants is set. Multiple axes sweep their cross
// product in declaration order (first axis slowest).
type Axis struct {
	// Param names what the axis drives. Int axes: "payload" (traffic
	// packet payload), "links" (enabled package-internal links),
	// "items" (pipeline/farm size), "rounds" (ping/group rounds),
	// "threads" (load threads per core).
	// Float axes: "freq_mhz" (core clock). Variant axes: any label
	// ("placement", "regime", ...), rendered as the row name.
	Param string `json:"param"`
	// FromConfig binds the axis grid to a harness.Config override:
	// "goodput_payloads" replaces an int grid, "latency_placements"
	// filters a variants axis by name. The compiled artifact declares
	// the matching harness knob.
	FromConfig string    `json:"from_config,omitempty"`
	Ints       []int     `json:"ints,omitempty"`
	Floats     []float64 `json:"floats,omitempty"`
	Variants   []Variant `json:"variants,omitempty"`
}

// kind reports which value list the axis carries.
func (a Axis) kind() string {
	switch {
	case len(a.Ints) > 0:
		return "ints"
	case len(a.Floats) > 0:
		return "floats"
	case len(a.Variants) > 0:
		return "variants"
	}
	return ""
}

// size is the axis grid length.
func (a Axis) size() int {
	switch a.kind() {
	case "ints":
		return len(a.Ints)
	case "floats":
		return len(a.Floats)
	default:
		return len(a.Variants)
	}
}

// Table customises the rendered table of measures that have free
// headers (aggregate_goodput, bridge_rate, energy, mips, and
// core_power/rail_power when they sweep more than the clock). Measures
// with canonical layouts (goodput_fraction, latency, ec, link_energy,
// budget, boot_cost, adc_rates) use only Title.
type Table struct {
	// Title is the table heading; empty derives "scenario: <name>".
	Title string `json:"title,omitempty"`
	// Label heads the point column (default "point").
	Label string `json:"label,omitempty"`
	// Value heads the measured column of aggregate_goodput and
	// bridge_rate (default "goodput").
	Value string `json:"value,omitempty"`
	// Ratio, when non-empty, adds a column of that header holding each
	// point's value relative to the first point's.
	Ratio string `json:"ratio,omitempty"`
}

// Spec is one declarative scenario. See the package comment.
type Spec struct {
	Name        string     `json:"name,omitempty"`
	Description string     `json:"description,omitempty"`
	Grid        Grid       `json:"grid"`
	Workload    Workload   `json:"workload"`
	Operating   *Operating `json:"operating,omitempty"`
	Sweep       []Axis     `json:"sweep"`
	// Measure selects what each point reports: "goodput_fraction",
	// "aggregate_goodput", "ec", "link_energy" (Table I) or
	// "bridge_rate" (the Ethernet bridge, which takes no flows) for
	// traffic, "latency" for ping, "energy" for the program structures,
	// and for load "mips" (Eq. 2), "core_power" (Fig. 4), "rail_power"
	// (Fig. 3), "budget" (Fig. 2), "boot_cost" (an nOS network boot of
	// the placement) or "adc_rates" (the Section II sampling limits).
	// Empty picks the structure's default (aggregate_goodput / latency
	// / energy / budget).
	Measure string `json:"measure,omitempty"`
	Table   *Table `json:"table,omitempty"`
}

// badf builds a field-level validation error marked as the caller's
// fault (harness.ErrBadConfig maps to HTTP 400).
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: scenario: %s", harness.ErrBadConfig, fmt.Sprintf(format, args...))
}

// structures lists the known workload structures and their default
// measures.
var structures = map[string]string{
	"traffic":  "aggregate_goodput",
	"ping":     "latency",
	"pipeline": "energy",
	"ring":     "energy",
	"farm":     "energy",
	"group":    "energy",
	"load":     "budget",
}

// measures maps each measure to the structure it applies to.
var measures = map[string]map[string]bool{
	"goodput_fraction":  {"traffic": true},
	"aggregate_goodput": {"traffic": true},
	"ec":                {"traffic": true},
	"link_energy":       {"traffic": true},
	"bridge_rate":       {"traffic": true},
	"latency":           {"ping": true},
	"energy":            {"pipeline": true, "ring": true, "farm": true, "group": true},
	"mips":              {"load": true},
	"core_power":        {"load": true},
	"rail_power":        {"load": true},
	"budget":            {"load": true},
	"boot_cost":         {"load": true},
	"adc_rates":         {"load": true},
}

// intAxes bounds each int axis param's values and names the structures
// it applies to (every one, when on is nil).
var intAxes = map[string]struct {
	lo, hi int
	needs  string
	on     []string
}{
	"payload": {1, 4096, "the traffic structure", []string{"traffic"}},
	"links":   {1, topo.InternalLinksPerPackage, "", nil},
	"items":   {1, MaxItems, "a pipeline or farm structure", []string{"pipeline", "farm"}},
	"rounds":  {2, MaxRounds, "a ping or group structure", []string{"ping", "group"}},
	"threads": {1, xs1.MaxThreads, "the load structure", []string{"load"}},
}

// Canonical returns the semantic normal form of the spec: structural
// defaults filled in (measure, operating point, rounds, items, threads,
// placement counts), empty slices normalised to nil, and pointer
// sections deep-copied so the result shares no mutable state with s.
// Hash and the service cache key both derive from this form, so
// equivalent spellings of one scenario share one identity.
func (s Spec) Canonical() Spec {
	if s.Name == "" {
		s.Name = "scenario"
	}
	if s.Measure == "" {
		s.Measure = structures[s.Workload.Structure]
	}
	op := Operating{CoreMHz: 500, VDD: 1.0, Links: "operating"}
	if s.Operating != nil {
		// Only an absent (zero) field takes the default; out-of-range
		// values survive to Validate so nonsense is rejected, not
		// silently swapped for 500 MHz / 1.0 V.
		if s.Operating.CoreMHz != 0 {
			op.CoreMHz = s.Operating.CoreMHz
		}
		if s.Operating.VDD != 0 {
			op.VDD = s.Operating.VDD
		}
		if s.Operating.Links != "" {
			op.Links = s.Operating.Links
		}
	}
	s.Operating = &op
	w := &s.Workload
	switch w.Structure {
	case "ping":
		if w.Rounds == 0 {
			w.Rounds = 32
		}
	case "group":
		if w.Rounds == 0 {
			w.Rounds = 8
		}
	case "pipeline", "farm":
		if w.Items == 0 {
			w.Items = 100
		}
	}
	if w.Threads = cloneRef(w.Threads); w.Threads == nil && w.Structure == "load" {
		four := 4
		w.Threads = &four
	}
	w.Flows = clone(w.Flows)
	w.A, w.B = cloneRef(w.A), cloneRef(w.B)
	if w.Placement = cloneRef(w.Placement); w.Placement != nil {
		w.Placement.Nodes = clone(w.Placement.Nodes)
	}
	axes := make([]Axis, len(s.Sweep))
	for i, ax := range s.Sweep {
		ax.Ints, ax.Floats, ax.Variants = clone(ax.Ints), clone(ax.Floats), clone(ax.Variants)
		for j := range ax.Variants {
			v := &ax.Variants[j]
			if v.EMult == 0 {
				v.EMult = 1
			}
			v.Flows, v.Nodes = clone(v.Flows), clone(v.Nodes)
			v.A, v.B = cloneRef(v.A), cloneRef(v.B)
		}
		axes[i] = ax
	}
	s.Sweep = axes
	s.Table = cloneRef(s.Table)
	return s
}

// clone copies a slice, normalising empty to nil.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// cloneRef copies what a pointer section points at.
func cloneRef[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// Hash is the canonical content identity of the spec: the hex sha256
// of its canonical JSON encoding. Spec -> JSON -> Spec -> Hash is
// stable, which is what lets the service cache submitted scenarios
// under it.
func (s Spec) Hash() string {
	blob, err := json.Marshal(s.Canonical())
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("scenario: hash marshal: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Parse decodes a JSON spec strictly (unknown fields are caller
// errors, catching typo'd knobs that would otherwise silently
// no-op), canonicalises and validates it.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, badf("bad spec JSON: %v", err)
	}
	if dec.More() {
		return Spec{}, badf("bad spec JSON: trailing data after the spec")
	}
	s = s.Canonical()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the canonical form of the spec field by field; every
// failure wraps harness.ErrBadConfig with a field-level message.
// Compile validates implicitly, so callers only need Validate for
// early diagnostics.
func (s Spec) Validate() error {
	s = s.Canonical()
	sys, err := topo.NewSystem(s.Grid.SlicesX, s.Grid.SlicesY)
	if err != nil {
		return badf("grid: %v", err)
	}
	if sys.Slices() > MaxSlices {
		return badf("grid: %dx%d slices (%d) exceeds the %d-slice service bound",
			s.Grid.SlicesX, s.Grid.SlicesY, sys.Slices(), MaxSlices)
	}
	w := s.Workload
	if _, ok := structures[w.Structure]; !ok {
		return badf("workload.structure: unknown structure %q (have traffic, ping, pipeline, ring, farm, group, load)", w.Structure)
	}
	if w.Boot && w.Structure != "pipeline" && w.Structure != "ring" &&
		w.Structure != "farm" && w.Structure != "group" {
		return badf("workload.boot: network boot applies only to program structures, not %q", w.Structure)
	}
	if !measures[s.Measure][w.Structure] {
		return badf("measure: %q does not apply to structure %q", s.Measure, w.Structure)
	}
	if len(s.Sweep) == 0 {
		return badf("sweep: at least one axis is required")
	}
	payloadAxes, variantAxes := 0, 0
	seenParams := make(map[string]bool)
	for i, ax := range s.Sweep {
		field := fmt.Sprintf("sweep[%d]", i)
		kinds := 0
		for _, n := range []int{len(ax.Ints), len(ax.Floats), len(ax.Variants)} {
			if n > 0 {
				kinds++
			}
		}
		if kinds == 0 {
			return badf("%s: empty axis: param %q has no ints, floats or variants", field, ax.Param)
		}
		if kinds > 1 {
			return badf("%s: axis must carry exactly one of ints, floats or variants", field)
		}
		// A repeated value param would have the later axis silently
		// override the earlier one at every point while still
		// multiplying the cross product. (Variants axes are already
		// limited to one per spec.)
		if ax.kind() != "variants" {
			if seenParams[ax.Param] {
				return badf("%s: duplicate axis param %q", field, ax.Param)
			}
			seenParams[ax.Param] = true
		}
		switch ax.kind() {
		case "ints":
			b, ok := intAxes[ax.Param]
			switch {
			case !ok:
				return badf("%s: unknown int axis param %q (have payload, links, items, rounds, threads)", field, ax.Param)
			case b.on != nil && !slices.Contains(b.on, w.Structure):
				return badf("%s: %s axis needs %s", field, ax.Param, b.needs)
			case ax.Param == "threads" && s.Measure == "boot_cost":
				return badf("%s: threads axis does not apply to boot_cost, whose program is fixed", field)
			}
			for _, v := range ax.Ints {
				if v < b.lo || v > b.hi {
					return badf("%s: %s %d outside %d-%d", field, ax.Param, v, b.lo, b.hi)
				}
			}
			if ax.Param == "payload" {
				payloadAxes++
			}
			if ax.FromConfig != "" && ax.FromConfig != "goodput_payloads" {
				return badf("%s: from_config %q does not apply to an int axis", field, ax.FromConfig)
			}
			if ax.FromConfig == "goodput_payloads" && ax.Param != "payload" {
				return badf("%s: from_config goodput_payloads needs the payload param", field)
			}
		case "floats":
			if ax.Param != "freq_mhz" {
				return badf("%s: unknown float axis param %q (have freq_mhz)", field, ax.Param)
			}
			if ax.FromConfig != "" {
				return badf("%s: from_config %q does not apply to a float axis", field, ax.FromConfig)
			}
			for _, v := range ax.Floats {
				if v < 1 || v > 500 {
					return badf("%s: freq_mhz %g outside 1-500", field, v)
				}
			}
		case "variants":
			variantAxes++
			if variantAxes > 1 {
				return badf("%s: at most one variants axis per spec", field)
			}
			if ax.Param == "" {
				return badf("%s: variants axis needs a param label", field)
			}
			if ax.FromConfig != "" && ax.FromConfig != "latency_placements" {
				return badf("%s: from_config %q does not apply to a variants axis", field, ax.FromConfig)
			}
			seen := make(map[string]bool)
			for j, v := range ax.Variants {
				vf := fmt.Sprintf("%s.variants[%d]", field, j)
				if v.Name == "" {
					return badf("%s: variant needs a name", vf)
				}
				if seen[v.Name] {
					return badf("%s: duplicate variant name %q", vf, v.Name)
				}
				seen[v.Name] = true
				if err := checkFlows(sys, v.Flows, vf+".flows", payloadAxes > 0); err != nil {
					return err
				}
				if v.A != nil {
					if err := v.A.check(sys, vf+".a"); err != nil {
						return err
					}
				}
				if v.B != nil {
					if err := v.B.check(sys, vf+".b"); err != nil {
						return err
					}
				}
				if err := checkNodes(sys, v.Nodes, vf+".nodes"); err != nil {
					return err
				}
				if len(v.Nodes) > 0 {
					if err := checkStructureNodes(w.Structure, len(v.Nodes), vf+".nodes"); err != nil {
						return err
					}
					if err := s.checkRail(sys, ids(v.Nodes), vf+".nodes"); err != nil {
						return err
					}
				}
			}
		}
	}
	if err := boundPoints(s.Sweep); err != nil {
		return err
	}

	switch w.Structure {
	case "traffic":
		if err := checkFlows(sys, w.Flows, "workload.flows", payloadAxes > 0); err != nil {
			return err
		}
		// Flows may come from the workload or a variants axis. The ec
		// measure may leave them out ("issue-limited: C = E"), and
		// bridge_rate must: its one source is the grid's bridge.
		flows := len(w.Flows) > 0 || s.anyVariant(func(v Variant) bool { return len(v.Flows) > 0 })
		switch {
		case s.Measure == "bridge_rate" && flows:
			return badf("workload.flows: bridge_rate streams from the grid's bridge and takes no flows")
		case !flows && s.Measure != "ec" && s.Measure != "bridge_rate":
			return badf("workload.flows: traffic structure needs flows (in the workload or its variants)")
		}
		if s.Measure == "goodput_fraction" && payloadAxes == 0 {
			return badf("measure: goodput_fraction needs a payload axis")
		}
		if s.Measure == "ec" && variantAxes == 0 {
			return badf("measure: ec needs a variants axis of regimes")
		}
	case "ping":
		if !(w.A != nil && w.B != nil) && !s.anyVariant(func(v Variant) bool { return v.A != nil && v.B != nil }) {
			return badf("workload.a/b: ping structure needs both endpoints (in the workload or its variants)")
		}
		if w.A != nil {
			if err := w.A.check(sys, "workload.a"); err != nil {
				return err
			}
		}
		if w.B != nil {
			if err := w.B.check(sys, "workload.b"); err != nil {
				return err
			}
		}
		if w.Rounds < 2 || w.Rounds > MaxRounds {
			return badf("workload.rounds: %d outside 2-%d", w.Rounds, MaxRounds)
		}
	case "load":
		if t := *w.Threads; t < 1 || t > xs1.MaxThreads {
			return badf("workload.threads: %d outside 1-%d", t, xs1.MaxThreads)
		}
		nodes, err := s.placementNodes(sys)
		if err != nil {
			return err
		}
		if err := s.checkRail(sys, nodes, "workload.placement"); err != nil {
			return err
		}
	default: // program structures: pipeline, ring, farm, group
		nodes, err := s.placementNodes(sys)
		if err != nil {
			return err
		}
		if nodes == nil {
			// Placement may come from a variants axis instead.
			if !s.anyVariant(func(v Variant) bool { return len(v.Nodes) > 0 }) {
				return badf("workload.placement: %s structure needs a placement (nodes or policy)", w.Structure)
			}
		} else if err := checkStructureNodes(w.Structure, len(nodes), "workload.placement"); err != nil {
			return err
		}
		if w.Structure == "pipeline" || w.Structure == "farm" {
			if w.Items < 1 || w.Items > MaxItems {
				return badf("workload.items: %d outside 1-%d", w.Items, MaxItems)
			}
		}
		if w.Structure == "group" && (w.Rounds < 1 || w.Rounds > MaxRounds) {
			return badf("workload.rounds: %d outside 1-%d", w.Rounds, MaxRounds)
		}
	}

	op := s.Operating
	if op.Links != "operating" && op.Links != "max" {
		return badf("operating.links: unknown link timing set %q (have operating, max)", op.Links)
	}
	if op.CoreMHz < 1 || op.CoreMHz > 500 {
		return badf("operating.core_mhz: %g outside 1-500", op.CoreMHz)
	}
	if op.VDD < 0.5 || op.VDD > 1.2 {
		return badf("operating.vdd: %g outside 0.5-1.2", op.VDD)
	}
	return nil
}

// anyVariant reports whether some variant of the sweep satisfies f.
func (s Spec) anyVariant(f func(Variant) bool) bool {
	for _, ax := range s.Sweep {
		if slices.ContainsFunc(ax.Variants, f) {
			return true
		}
	}
	return false
}

// boundPoints refuses a sweep past MaxPoints. It bounds the cross
// product axis by axis, so a hostile grid cannot wrap the total past
// 2^64 into something small.
func boundPoints(axes []Axis) error {
	points := 1
	for _, ax := range axes {
		if points *= ax.size(); points > MaxPoints {
			return badf("sweep: %d points exceed the %d-point service bound", points, MaxPoints)
		}
	}
	return nil
}

// checkFlows validates one flow list.
func checkFlows(sys topo.System, flows []FlowSpec, field string, havePayloadAxis bool) error {
	if len(flows) > MaxFlows {
		return badf("%s: %d flows exceed the %d-flow bound", field, len(flows), MaxFlows)
	}
	for i, f := range flows {
		ff := fmt.Sprintf("%s[%d]", field, i)
		if err := f.Src.check(sys, ff+".src"); err != nil {
			return err
		}
		if err := f.Dst.check(sys, ff+".dst"); err != nil {
			return err
		}
		for _, end := range []struct {
			name string
			v    int
		}{{"src_end", f.SrcEnd}, {"dst_end", f.DstEnd}} {
			if end.v < 0 || end.v >= noc.OperatingConfig().ChanEndsPerCore {
				return badf("%s.%s: channel end %d outside 0-%d", ff, end.name, end.v,
					noc.OperatingConfig().ChanEndsPerCore-1)
			}
		}
		if f.Tokens < 0 || f.Tokens > MaxTokens {
			return badf("%s.tokens: %d outside 0-%d", ff, f.Tokens, MaxTokens)
		}
		if f.TokensPerUnit < 0 || f.TokensPerUnit > 1024 {
			return badf("%s.tokens_per_unit: %d outside 0-1024", ff, f.TokensPerUnit)
		}
		if f.PacketTokens < 0 || f.PacketTokens > MaxTokens {
			return badf("%s.packet_tokens: %d outside 0-%d", ff, f.PacketTokens, MaxTokens)
		}
		if (f.TokensPerUnit > 0 || f.PacketFromAxis) && !havePayloadAxis {
			return badf("%s: payload-scaled fields need a payload axis", ff)
		}
		if f.Tokens == 0 && f.TokensPerUnit == 0 {
			return badf("%s.tokens: flow needs tokens or tokens_per_unit", ff)
		}
		if f.Src == f.Dst && f.SrcEnd == f.DstEnd {
			return badf("%s: src and dst name the same channel end; the flow can never drain (use distinct ends for a core-local stream)", ff)
		}
	}
	return nil
}

// checkNodes validates an explicit node list.
func checkNodes(sys topo.System, nodes []NodeRef, field string) error {
	if len(nodes) > MaxNodes {
		return badf("%s: %d nodes exceed the %d-node bound", field, len(nodes), MaxNodes)
	}
	seen := make(map[NodeRef]bool)
	for i, n := range nodes {
		nf := fmt.Sprintf("%s[%d]", field, i)
		if err := n.check(sys, nf); err != nil {
			return err
		}
		if seen[n] {
			return badf("%s: duplicate node (%d,%d,%s)", nf, n.X, n.Y, n.Layer)
		}
		seen[n] = true
	}
	return nil
}

// checkStructureNodes enforces each program structure's minimum node
// count (and the barrier root's 8-member release table).
func checkStructureNodes(structure string, n int, field string) error {
	switch structure {
	case "pipeline":
		if n < 3 {
			return badf("%s: pipeline needs >= 3 nodes (source, stages, sink), got %d", field, n)
		}
	case "ring":
		if n < 2 {
			return badf("%s: ring needs >= 2 nodes, got %d", field, n)
		}
	case "farm":
		if n < 2 {
			return badf("%s: farm needs a server and >= 1 client, got %d", field, n)
		}
	case "group":
		if n < 2 {
			return badf("%s: group needs a root and >= 1 member, got %d", field, n)
		}
		if n > 9 {
			return badf("%s: group supports at most 8 members (root release table), got %d", field, n-1)
		}
	}
	return nil
}

// placementNodes resolves the workload's base placement to node IDs:
// explicit nodes, or a topo policy applied to the grid. Returns nil
// when no placement is declared (variants may supply one).
func (s Spec) placementNodes(sys topo.System) ([]topo.NodeID, error) {
	p := s.Workload.Placement
	if p == nil {
		return nil, nil
	}
	if len(p.Nodes) > 0 {
		if p.Policy != "" {
			return nil, badf("workload.placement: nodes and policy are exclusive")
		}
		if err := checkNodes(sys, p.Nodes, "workload.placement.nodes"); err != nil {
			return nil, err
		}
		return ids(p.Nodes), nil
	}
	if p.Policy == "" {
		return nil, badf("workload.placement: needs nodes or a policy")
	}
	if p.Count < 1 || p.Count > MaxNodes {
		return nil, badf("workload.placement.count: %d outside 1-%d", p.Count, MaxNodes)
	}
	nodes, err := topo.Place(sys, topo.PlacementPolicy(p.Policy), p.Count)
	if err != nil {
		return nil, badf("workload.placement: %v", err)
	}
	return nodes, nil
}

// ids converts validated node references to their topo nodes.
func ids(refs []NodeRef) []topo.NodeID {
	out := make([]topo.NodeID, len(refs))
	for i, n := range refs {
		out[i] = n.ID()
	}
	return out
}

// checkRail holds a rail_power placement to one 1 V rail: the measure
// reads the converter that feeds it, so it must be given and must not
// straddle two.
func (s Spec) checkRail(sys topo.System, nodes []topo.NodeID, field string) error {
	if s.Measure != "rail_power" {
		return nil
	}
	if len(nodes) == 0 {
		return badf("%s: rail_power reads the rail that feeds the placement, and none is given", field)
	}
	slice, rail := core.Rail(sys, nodes[0])
	for _, n := range nodes[1:] {
		if sl, r := core.Rail(sys, n); sl != slice || r != rail {
			return badf("%s: rail_power placement spans two rails (%v on slice %d rail %d, %v on slice %d rail %d)",
				field, nodes[0], slice, rail, n, sl, r)
		}
	}
	return nil
}
