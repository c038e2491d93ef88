// Package topo models the physical structure of a Swallow machine: the
// XS1-L2A dual-core packages, the sixteen-core slice boards, multi-slice
// grids, and the "unwoven lattice" network topology with its 2.5-D
// dimension-order routing.
//
// # The unwoven lattice
//
// Each XS1-L2A package holds two cores joined by four high-bandwidth
// internal links, and exposes four external link pins, two per core. The
// pin-out makes a conventional 2D mesh impossible (Section V-A of the
// paper): instead, one core of every package routes only in the vertical
// dimension (its two external links go North and South) while the other
// routes only horizontally (East and West). The result is two overlaid
// half-density layers - an unwoven lattice - and any route that needs to
// change direction must hop between layers through a package's internal
// links. Dimension-order routing guarantees at most two layer
// transitions, the worst case being two horizontal-layer nodes that do
// not share a vertical index.
//
// # Slice geometry
//
// A slice carries eight packages in a 2-wide x 4-tall grid (sixteen
// cores). Column chains expose North/South links at the board edge
// (2 columns x 2 = 4 vertical edge links) and row chains expose East/West
// links (4 rows x 2 = 8 horizontal edge links). Of those twelve edge
// positions, the two South positions double as Ethernet bridge module
// sites, leaving the ten off-board network links the paper describes.
// The vertical bisection of a slice therefore crosses exactly four
// horizontal links - the 4 x 62.5 Mbit/s = 250 Mbit/s bisection used in
// Section V-D's EC analysis.
package topo

import (
	"fmt"

	"swallow/internal/energy"
)

// Layer distinguishes the two routing layers of the lattice.
type Layer uint8

const (
	// LayerV cores own the North/South external links and route
	// vertically.
	LayerV Layer = 0
	// LayerH cores own the East/West external links and route
	// horizontally.
	LayerH Layer = 1
)

// String names the layer.
func (l Layer) String() string {
	if l == LayerV {
		return "V"
	}
	return "H"
}

// Dir is a link direction out of a switch.
type Dir uint8

const (
	// DirInternal crosses between the two cores of a package.
	DirInternal Dir = iota
	// DirNorth decreases y (vertical layer only).
	DirNorth
	// DirSouth increases y (vertical layer only).
	DirSouth
	// DirEast increases x (horizontal layer only).
	DirEast
	// DirWest decreases x (horizontal layer only).
	DirWest
	// DirLocal delivers to a channel end on this core.
	DirLocal

	// NumDirs is the number of direction values.
	NumDirs
)

// String names the direction.
func (d Dir) String() string {
	switch d {
	case DirInternal:
		return "internal"
	case DirNorth:
		return "north"
	case DirSouth:
		return "south"
	case DirEast:
		return "east"
	case DirWest:
		return "west"
	case DirLocal:
		return "local"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// NodeID identifies one core (equivalently, its switch) in the package
// grid: bit 0 is the layer, bits 1-7 the package-grid x coordinate and
// bits 8-15 the y coordinate.
type NodeID uint16

// MakeNodeID builds a node ID from package-grid coordinates and layer.
func MakeNodeID(x, y int, l Layer) NodeID {
	if x < 0 || x > 127 || y < 0 || y > 255 {
		panic(fmt.Sprintf("topo: coordinates (%d,%d) out of range", x, y))
	}
	return NodeID(uint16(l) | uint16(x)<<1 | uint16(y)<<8)
}

// X reports the package-grid column.
func (n NodeID) X() int { return int(n>>1) & 0x7f }

// Y reports the package-grid row.
func (n NodeID) Y() int { return int(n >> 8) }

// Layer reports the routing layer of the core.
func (n NodeID) Layer() Layer { return Layer(n & 1) }

// Package reports the node of the co-packaged core (the other layer at
// the same coordinates).
func (n NodeID) Package() NodeID { return n ^ 1 }

// String renders a node as, e.g., "V(3,1)".
func (n NodeID) String() string {
	return fmt.Sprintf("%v(%d,%d)", n.Layer(), n.X(), n.Y())
}

// Slice geometry constants.
const (
	// PackagesPerSliceX is the package-grid width of a slice board.
	PackagesPerSliceX = 2
	// PackagesPerSliceY is the package-grid height of a slice board.
	PackagesPerSliceY = 4
	// CoresPerPackage is the XS1-L2A core count.
	CoresPerPackage = 2
	// CoresPerSlice is 16 processors per board.
	CoresPerSlice = PackagesPerSliceX * PackagesPerSliceY * CoresPerPackage
	// InternalLinksPerPackage is the number of parallel links between the
	// two cores of a package (four times the external bandwidth).
	InternalLinksPerPackage = 4
	// ExternalLinksPerCore is the number of off-package link pins per
	// core.
	ExternalLinksPerCore = 2
	// OffBoardLinksPerSlice is the number of inter-slice network
	// connectors on one board.
	OffBoardLinksPerSlice = 10
	// EthernetSitesPerSlice is the number of South-edge positions that
	// can host an Ethernet bridge module instead of a network cable.
	EthernetSitesPerSlice = 2
)

// System describes a rectangular grid of slices.
type System struct {
	// SlicesX and SlicesY give the arrangement of boards.
	SlicesX, SlicesY int
}

// NewSystem validates and builds a system description.
func NewSystem(slicesX, slicesY int) (System, error) {
	s := System{SlicesX: slicesX, SlicesY: slicesY}
	if slicesX < 1 || slicesY < 1 {
		return s, fmt.Errorf("topo: system must have at least one slice, got %dx%d", slicesX, slicesY)
	}
	if w := slicesX * PackagesPerSliceX; w > 127 {
		return s, fmt.Errorf("topo: package grid width %d exceeds NodeID range", w)
	}
	if h := slicesY * PackagesPerSliceY; h > 255 {
		return s, fmt.Errorf("topo: package grid height %d exceeds NodeID range", h)
	}
	return s, nil
}

// MustSystem is NewSystem for known-good literals; it panics on error.
func MustSystem(slicesX, slicesY int) System {
	s, err := NewSystem(slicesX, slicesY)
	if err != nil {
		panic(err)
	}
	return s
}

// Width reports the package-grid width.
func (s System) Width() int { return s.SlicesX * PackagesPerSliceX }

// Height reports the package-grid height.
func (s System) Height() int { return s.SlicesY * PackagesPerSliceY }

// Slices reports the board count.
func (s System) Slices() int { return s.SlicesX * s.SlicesY }

// Cores reports the processor count.
func (s System) Cores() int { return s.Slices() * CoresPerSlice }

// Contains reports whether a node's coordinates are inside the grid.
func (s System) Contains(n NodeID) bool {
	return n.X() >= 0 && n.X() < s.Width() && n.Y() >= 0 && n.Y() < s.Height()
}

// Nodes enumerates every core in the system in deterministic order
// (y-major, then x, then layer V before H).
func (s System) Nodes() []NodeID {
	out := make([]NodeID, 0, s.Cores())
	for y := 0; y < s.Height(); y++ {
		for x := 0; x < s.Width(); x++ {
			out = append(out, MakeNodeID(x, y, LayerV), MakeNodeID(x, y, LayerH))
		}
	}
	return out
}

// SliceOf reports which board a node sits on, as slice-grid coordinates.
func (s System) SliceOf(n NodeID) (sx, sy int) {
	return n.X() / PackagesPerSliceX, n.Y() / PackagesPerSliceY
}

// SameSlice reports whether two nodes share a board.
func (s System) SameSlice(a, b NodeID) bool {
	ax, ay := s.SliceOf(a)
	bx, by := s.SliceOf(b)
	return ax == bx && ay == by
}

// Neighbor returns the node reached by leaving n in direction d, and
// whether such a link exists. Internal returns the co-packaged core;
// compass directions respect the node's layer and the grid boundary.
func (s System) Neighbor(n NodeID, d Dir) (NodeID, bool) {
	switch d {
	case DirInternal:
		return n.Package(), true
	case DirNorth:
		if n.Layer() != LayerV || n.Y() == 0 {
			return 0, false
		}
		return MakeNodeID(n.X(), n.Y()-1, LayerV), true
	case DirSouth:
		if n.Layer() != LayerV || n.Y() == s.Height()-1 {
			return 0, false
		}
		return MakeNodeID(n.X(), n.Y()+1, LayerV), true
	case DirEast:
		if n.Layer() != LayerH || n.X() == s.Width()-1 {
			return 0, false
		}
		return MakeNodeID(n.X()+1, n.Y(), LayerH), true
	case DirWest:
		if n.Layer() != LayerH || n.X() == 0 {
			return 0, false
		}
		return MakeNodeID(n.X()-1, n.Y(), LayerH), true
	}
	return 0, false
}

// LinkClassFor classifies the physical link leaving n in direction d,
// which determines its Table I speed and energy: package-internal links
// are on-chip; links that stay on one board are on-board (vertical or
// horizontal); links crossing a slice boundary are off-board FFC cables.
func (s System) LinkClassFor(n NodeID, d Dir) (energy.LinkClass, error) {
	m, ok := s.Neighbor(n, d)
	if !ok {
		return 0, fmt.Errorf("topo: no %v link at %v", d, n)
	}
	switch d {
	case DirInternal:
		return energy.LinkOnChip, nil
	case DirNorth, DirSouth:
		if s.SameSlice(n, m) {
			return energy.LinkBoardVertical, nil
		}
		return energy.LinkOffBoard, nil
	case DirEast, DirWest:
		if s.SameSlice(n, m) {
			return energy.LinkBoardHorizontal, nil
		}
		return energy.LinkOffBoard, nil
	}
	return 0, fmt.Errorf("topo: direction %v has no physical link", d)
}
