package topo

import (
	"testing"
	"testing/quick"

	"swallow/internal/energy"
)

func TestNodeIDRoundTrip(t *testing.T) {
	for _, x := range []int{0, 1, 7, 79, 127} {
		for _, y := range []int{0, 1, 3, 159, 255} {
			for _, l := range []Layer{LayerV, LayerH} {
				n := MakeNodeID(x, y, l)
				if n.X() != x || n.Y() != y || n.Layer() != l {
					t.Fatalf("MakeNodeID(%d,%d,%v) round-trip gave (%d,%d,%v)",
						x, y, l, n.X(), n.Y(), n.Layer())
				}
			}
		}
	}
}

func TestNodeIDRoundTripProperty(t *testing.T) {
	f := func(x, y uint8, l bool) bool {
		xi := int(x) % 128
		yi := int(y)
		layer := LayerV
		if l {
			layer = LayerH
		}
		n := MakeNodeID(xi, yi, layer)
		return n.X() == xi && n.Y() == yi && n.Layer() == layer
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeIDOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MakeNodeID(128,0) did not panic")
		}
	}()
	MakeNodeID(128, 0, LayerV)
}

func TestPackagePairing(t *testing.T) {
	v := MakeNodeID(3, 5, LayerV)
	h := MakeNodeID(3, 5, LayerH)
	if v.Package() != h || h.Package() != v {
		t.Error("Package() does not pair the two cores of a package")
	}
}

func TestNodeString(t *testing.T) {
	if got := MakeNodeID(3, 1, LayerV).String(); got != "V(3,1)" {
		t.Errorf("String = %q, want V(3,1)", got)
	}
	if got := MakeNodeID(0, 7, LayerH).String(); got != "H(0,7)" {
		t.Errorf("String = %q, want H(0,7)", got)
	}
}

func TestSliceConstants(t *testing.T) {
	if CoresPerSlice != 16 {
		t.Errorf("CoresPerSlice = %d, want 16", CoresPerSlice)
	}
	if PackagesPerSliceX*PackagesPerSliceY != 8 {
		t.Error("a slice must carry eight packages")
	}
}

func TestSystemGeometry(t *testing.T) {
	s := MustSystem(1, 1)
	if s.Cores() != 16 || s.Width() != 2 || s.Height() != 4 {
		t.Errorf("1x1 system: cores=%d w=%d h=%d", s.Cores(), s.Width(), s.Height())
	}
	// The paper's largest tested machine: 30 slices = 480 cores.
	s30 := MustSystem(5, 6)
	if s30.Slices() != 30 || s30.Cores() != 480 {
		t.Errorf("5x6 system: slices=%d cores=%d", s30.Slices(), s30.Cores())
	}
	// The eight-board stack of Fig. 1: 128 cores.
	s8 := MustSystem(1, 8)
	if s8.Cores() != 128 {
		t.Errorf("8-board stack cores = %d, want 128", s8.Cores())
	}
	// All forty manufactured slices: 640 processors.
	s40 := MustSystem(5, 8)
	if s40.Cores() != 640 {
		t.Errorf("40-slice machine cores = %d, want 640", s40.Cores())
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(0, 1); err == nil {
		t.Error("0x1 system accepted")
	}
	if _, err := NewSystem(64, 1); err == nil {
		t.Error("grid wider than NodeID range accepted")
	}
	if _, err := NewSystem(1, 64); err == nil {
		t.Error("grid taller than NodeID range accepted")
	}
	if _, err := NewSystem(5, 6); err != nil {
		t.Errorf("30-slice system rejected: %v", err)
	}
}

func TestMustSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSystem(0,0) did not panic")
		}
	}()
	MustSystem(0, 0)
}

func TestNodesEnumeration(t *testing.T) {
	s := MustSystem(1, 1)
	nodes := s.Nodes()
	if len(nodes) != 16 {
		t.Fatalf("len(Nodes) = %d, want 16", len(nodes))
	}
	seen := map[NodeID]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("duplicate node %v", n)
		}
		seen[n] = true
		if !s.Contains(n) {
			t.Fatalf("node %v outside system", n)
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	s := MustSystem(2, 2)
	for _, n := range s.Nodes() {
		for d := DirInternal; d < DirLocal; d++ {
			m, ok := s.Neighbor(n, d)
			if !ok {
				continue
			}
			back, ok2 := s.Neighbor(m, d.opposite())
			if !ok2 || back != n {
				t.Fatalf("neighbor not symmetric: %v -%v-> %v -%v-> %v", n, d, m, d.opposite(), back)
			}
		}
	}
}

func TestNeighborLayerDiscipline(t *testing.T) {
	s := MustSystem(2, 2)
	for _, n := range s.Nodes() {
		_, okN := s.Neighbor(n, DirNorth)
		_, okE := s.Neighbor(n, DirEast)
		if n.Layer() == LayerV && okE {
			t.Fatalf("vertical node %v has an east link", n)
		}
		if n.Layer() == LayerH && okN {
			t.Fatalf("horizontal node %v has a north link", n)
		}
	}
}

func TestEdgeLinkCount(t *testing.T) {
	// One slice: 2 columns x N/S + 4 rows x E/W = 12 edge positions.
	s := MustSystem(1, 1)
	edges := edgeLinks(s)
	if len(edges) != 12 {
		t.Fatalf("edge links = %d, want 12", len(edges))
	}
	// Ten become off-board network connectors, two host Ethernet bridges.
	if len(edges)-EthernetSitesPerSlice != OffBoardLinksPerSlice {
		t.Errorf("12 - %d Ethernet sites != %d off-board links",
			EthernetSitesPerSlice, OffBoardLinksPerSlice)
	}
}

func TestLinkClassification(t *testing.T) {
	s := MustSystem(2, 2)
	cases := []struct {
		n    NodeID
		d    Dir
		want energy.LinkClass
	}{
		{MakeNodeID(0, 0, LayerV), DirInternal, energy.LinkOnChip},
		{MakeNodeID(0, 0, LayerV), DirSouth, energy.LinkBoardVertical},
		{MakeNodeID(0, 0, LayerH), DirEast, energy.LinkBoardHorizontal},
		// Crossing the slice boundary at x=1->2 or y=3->4 is off-board.
		{MakeNodeID(1, 0, LayerH), DirEast, energy.LinkOffBoard},
		{MakeNodeID(0, 3, LayerV), DirSouth, energy.LinkOffBoard},
	}
	for _, c := range cases {
		got, err := s.LinkClassFor(c.n, c.d)
		if err != nil {
			t.Fatalf("LinkClassFor(%v,%v): %v", c.n, c.d, err)
		}
		if got != c.want {
			t.Errorf("LinkClassFor(%v,%v) = %v, want %v", c.n, c.d, got, c.want)
		}
	}
	if _, err := s.LinkClassFor(MakeNodeID(0, 0, LayerV), DirNorth); err == nil {
		t.Error("link off the top edge classified without error")
	}
	if _, err := s.LinkClassFor(MakeNodeID(0, 0, LayerV), DirLocal); err == nil {
		t.Error("DirLocal classified as a physical link")
	}
}

func TestVerticalBisection(t *testing.T) {
	// Section V-D: the vertical bisection of one slice crosses four
	// horizontal links = 4 x 62.5 Mbit/s = 250 Mbit/s.
	s := MustSystem(1, 1)
	links := s.VerticalBisectionLinks()
	if len(links) != 4 {
		t.Fatalf("slice vertical bisection = %d links, want 4", len(links))
	}
	for _, n := range links {
		if n.Layer() != LayerH {
			t.Errorf("bisection link owner %v not on horizontal layer", n)
		}
	}
}

func TestHorizontalBisection(t *testing.T) {
	s := MustSystem(1, 1)
	links := horizontalBisectionLinks(s)
	if len(links) != 2 {
		t.Fatalf("slice horizontal bisection = %d links, want 2", len(links))
	}
}

func TestRouteConverges(t *testing.T) {
	s := MustSystem(2, 2)
	nodes := s.Nodes()
	for _, policy := range []RoutePolicy{PolicyAdaptive, PolicyStrictVerticalFirst} {
		for _, src := range nodes {
			for _, dst := range nodes {
				hops, err := s.Route(src, dst, policy)
				if err != nil {
					t.Fatalf("%v: route %v->%v: %v", policy, src, dst, err)
				}
				last := hops[len(hops)-1]
				if last.Dir != DirLocal || last.To != dst {
					t.Fatalf("%v: route %v->%v ends at %v via %v", policy, src, dst, last.To, last.Dir)
				}
			}
		}
	}
}

func TestRouteMinimalLength(t *testing.T) {
	// Every route's physical length is |dx| + |dy| + layer transitions.
	s := MustSystem(2, 2)
	nodes := s.Nodes()
	for _, src := range nodes {
		for _, dst := range nodes {
			hops, err := s.Route(src, dst, PolicyAdaptive)
			if err != nil {
				t.Fatal(err)
			}
			dx := abs(dst.X() - src.X())
			dy := abs(dst.Y() - src.Y())
			want := dx + dy + LayerTransitions(hops)
			if got := PathLength(hops); got != want {
				t.Errorf("route %v->%v length %d, want %d (dx=%d dy=%d xings=%d)",
					src, dst, got, want, dx, dy, LayerTransitions(hops))
			}
		}
	}
}

func TestAdaptiveRoutingTwoTransitionBound(t *testing.T) {
	// Section V-A: "there will be at most two layer transitions".
	s := MustSystem(3, 3)
	nodes := s.Nodes()
	maxSeen := 0
	var worst [2]NodeID
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			hops, err := s.Route(src, dst, PolicyAdaptive)
			if err != nil {
				t.Fatal(err)
			}
			if n := LayerTransitions(hops); n > maxSeen {
				maxSeen = n
				worst = [2]NodeID{src, dst}
			}
		}
	}
	if maxSeen > 2 {
		t.Errorf("adaptive routing needed %d layer transitions (%v->%v), bound is 2",
			maxSeen, worst[0], worst[1])
	}
	if maxSeen != 2 {
		t.Errorf("worst case should reach exactly 2 transitions, saw %d", maxSeen)
	}
}

func TestExemplaryWorstCase(t *testing.T) {
	// "the exemplary case being two nodes attached to the horizontal
	// layer that do not share the same vertical index".
	s := MustSystem(2, 2)
	src := MakeNodeID(0, 0, LayerH)
	dst := MakeNodeID(1, 3, LayerH)
	hops, err := s.Route(src, dst, PolicyAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	if got := LayerTransitions(hops); got != 2 {
		t.Errorf("H->H cross-row route used %d transitions, want 2", got)
	}
	// First hop must leave for the vertical layer ("the message must
	// therefore be sent to the other layer first").
	if hops[0].Dir != DirInternal {
		t.Errorf("first hop = %v, want internal crossing", hops[0].Dir)
	}
}

func TestStrictPolicyCostsMoreTransitions(t *testing.T) {
	// The ablation baseline needs three transitions H->V when both
	// dimensions are non-zero; adaptive needs one.
	s := MustSystem(2, 2)
	src := MakeNodeID(0, 0, LayerH)
	dst := MakeNodeID(1, 3, LayerV)
	adaptive, err := s.Route(src, dst, PolicyAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := s.Route(src, dst, PolicyStrictVerticalFirst)
	if err != nil {
		t.Fatal(err)
	}
	if a, st := LayerTransitions(adaptive), LayerTransitions(strict); a != 1 || st != 3 {
		t.Errorf("transitions adaptive=%d strict=%d, want 1 and 3", a, st)
	}
}

func TestNextHopErrors(t *testing.T) {
	s := MustSystem(1, 1)
	outside := MakeNodeID(10, 10, LayerV)
	if _, err := s.NextHop(outside, MakeNodeID(0, 0, LayerV), PolicyAdaptive); err == nil {
		t.Error("NextHop from outside the grid succeeded")
	}
	if _, err := s.NextHop(MakeNodeID(0, 0, LayerV), outside, PolicyAdaptive); err == nil {
		t.Error("NextHop to outside the grid succeeded")
	}
	d, err := s.NextHop(MakeNodeID(0, 0, LayerV), MakeNodeID(0, 0, LayerV), PolicyAdaptive)
	if err != nil || d != DirLocal {
		t.Errorf("self route = %v, %v; want local, nil", d, err)
	}
}

func TestDirOppositeAndStrings(t *testing.T) {
	for d := DirInternal; d < NumDirs; d++ {
		if d.String() == "" {
			t.Errorf("Dir(%d) has empty name", d)
		}
	}
	if Dir(99).String() == "" || Layer(0).String() != "V" || Layer(1).String() != "H" {
		t.Error("string rendering wrong")
	}
}

func TestSliceOf(t *testing.T) {
	s := MustSystem(2, 2)
	sx, sy := s.SliceOf(MakeNodeID(3, 5, LayerV))
	if sx != 1 || sy != 1 {
		t.Errorf("SliceOf(3,5) = (%d,%d), want (1,1)", sx, sy)
	}
	if !s.SameSlice(MakeNodeID(0, 0, LayerV), MakeNodeID(1, 3, LayerH)) {
		t.Error("nodes on slice (0,0) reported as different slices")
	}
	if s.SameSlice(MakeNodeID(0, 0, LayerV), MakeNodeID(2, 0, LayerV)) {
		t.Error("nodes across the x slice boundary reported as same slice")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// opposite returns the reverse direction for the four compass links.
func (d Dir) opposite() Dir {
	switch d {
	case DirNorth:
		return DirSouth
	case DirSouth:
		return DirNorth
	case DirEast:
		return DirWest
	case DirWest:
		return DirEast
	}
	return d
}

// horizontalBisectionLinks returns the north-side vertical-layer nodes
// whose South link crosses the horizontal mid-line.
func horizontalBisectionLinks(s System) []NodeID {
	cut := s.Height() / 2
	var out []NodeID
	for x := 0; x < s.Width(); x++ {
		out = append(out, MakeNodeID(x, cut-1, LayerV))
	}
	return out
}

// edgeLinks enumerates the (node, direction) pairs whose compass link
// would leave the grid - the positions brought to board-edge connectors.
func edgeLinks(s System) []Hop {
	var out []Hop
	for x := 0; x < s.Width(); x++ {
		out = append(out, Hop{From: MakeNodeID(x, 0, LayerV), Dir: DirNorth})
		out = append(out, Hop{From: MakeNodeID(x, s.Height()-1, LayerV), Dir: DirSouth})
	}
	for y := 0; y < s.Height(); y++ {
		out = append(out, Hop{From: MakeNodeID(0, y, LayerH), Dir: DirWest})
		out = append(out, Hop{From: MakeNodeID(s.Width()-1, y, LayerH), Dir: DirEast})
	}
	return out
}
