package topo

import "fmt"

// RoutePolicy selects between the adaptive dimension ordering Swallow
// uses (at most two layer transitions on any route) and a strict
// vertical-first ordering kept as an ablation baseline.
type RoutePolicy uint8

const (
	// PolicyAdaptive orders the dimensions so a route departs on the
	// source's layer and arrives on the destination's layer whenever
	// that removes a layer transition. This is the routing strategy
	// Section V-A describes: vertical is prioritised, and a
	// horizontal-layer node that must travel vertically crosses to the
	// other layer first; the worst case (two horizontal-layer nodes with
	// different vertical indices) costs exactly two transitions.
	PolicyAdaptive RoutePolicy = iota
	// PolicyStrictVerticalFirst always resolves the vertical dimension
	// before the horizontal one regardless of the layers involved. It can
	// cost a third layer transition and exists as an ablation baseline.
	PolicyStrictVerticalFirst
)

// String names the policy.
func (p RoutePolicy) String() string {
	if p == PolicyStrictVerticalFirst {
		return "strict-vertical-first"
	}
	return "adaptive"
}

// NextHop computes the direction a switch at cur forwards a message
// destined for dst, under the given policy. It returns DirLocal when
// cur == dst.
func (s System) NextHop(cur, dst NodeID, policy RoutePolicy) (Dir, error) {
	if !s.Contains(cur) || !s.Contains(dst) {
		return 0, fmt.Errorf("topo: route %v->%v leaves the %dx%d grid", cur, dst, s.Width(), s.Height())
	}
	if cur == dst {
		return DirLocal, nil
	}
	dx := dst.X() - cur.X()
	dy := dst.Y() - cur.Y()

	vStep := func() Dir {
		if dy < 0 {
			return DirNorth
		}
		return DirSouth
	}
	hStep := func() Dir {
		if dx < 0 {
			return DirWest
		}
		return DirEast
	}

	// Same package: either deliver locally (handled above) or cross.
	if dx == 0 && dy == 0 {
		return DirInternal, nil
	}

	if policy == PolicyStrictVerticalFirst {
		if dy != 0 {
			if cur.Layer() != LayerV {
				return DirInternal, nil
			}
			return vStep(), nil
		}
		if dx != 0 {
			if cur.Layer() != LayerH {
				return DirInternal, nil
			}
			return hStep(), nil
		}
		// dx == 0 && dy == 0 but different layer.
		return DirInternal, nil
	}

	// Adaptive ordering. Decide which dimension to resolve first so the
	// route starts on the source layer and ends on the destination layer
	// when that is possible.
	switch {
	case dy != 0 && dx != 0:
		// Both dimensions pending: travel the dimension matching the
		// current layer. A route that starts on V does vertical first; a
		// route that starts on H does horizontal first only when the
		// destination is a V-layer node (ending the route with a single
		// crossing); otherwise the paper's vertical-first rule applies
		// and the message crosses layers immediately.
		if cur.Layer() == LayerV {
			return vStep(), nil
		}
		if dst.Layer() == LayerV {
			return hStep(), nil
		}
		return DirInternal, nil
	case dy != 0:
		if cur.Layer() != LayerV {
			return DirInternal, nil
		}
		return vStep(), nil
	default: // dx != 0
		if cur.Layer() != LayerH {
			return DirInternal, nil
		}
		return hStep(), nil
	}
}

// Hop is one step of a computed route.
type Hop struct {
	// From is the switch forwarding the message.
	From NodeID
	// Dir is the output link it uses.
	Dir Dir
	// To is the next switch (or From itself for DirLocal).
	To NodeID
}

// Route expands the full switch-by-switch path from src to dst. The final
// hop is always DirLocal at the destination. An error is returned if the
// route fails to converge, which would indicate a routing-function bug.
func (s System) Route(src, dst NodeID, policy RoutePolicy) ([]Hop, error) {
	var hops []Hop
	cur := src
	limit := 4 * (s.Width() + s.Height() + 4)
	for i := 0; i < limit; i++ {
		d, err := s.NextHop(cur, dst, policy)
		if err != nil {
			return nil, err
		}
		if d == DirLocal {
			hops = append(hops, Hop{From: cur, Dir: DirLocal, To: cur})
			return hops, nil
		}
		next, ok := s.Neighbor(cur, d)
		if !ok {
			return nil, fmt.Errorf("topo: route %v->%v stepped off the grid at %v going %v", src, dst, cur, d)
		}
		hops = append(hops, Hop{From: cur, Dir: d, To: next})
		cur = next
	}
	return nil, fmt.Errorf("topo: route %v->%v did not converge in %d hops", src, dst, limit)
}

// LayerTransitions counts the DirInternal hops of a route, the metric
// Section V-A bounds at two for the adaptive policy.
func LayerTransitions(hops []Hop) int {
	n := 0
	for _, h := range hops {
		if h.Dir == DirInternal {
			n++
		}
	}
	return n
}

// PathLength counts the physical link traversals of a route (everything
// except the final local delivery).
func PathLength(hops []Hop) int {
	n := 0
	for _, h := range hops {
		if h.Dir != DirLocal {
			n++
		}
	}
	return n
}

// VerticalBisectionLinks returns the directed horizontal links crossing
// the vertical mid-line of the system: the cut used for the slice
// bisection-bandwidth analysis of Section V-D. Each entry is the
// west-side horizontal-layer node whose East link crosses the cut.
func (s System) VerticalBisectionLinks() []NodeID {
	cut := s.Width() / 2 // between columns cut-1 and cut
	var out []NodeID
	for y := 0; y < s.Height(); y++ {
		out = append(out, MakeNodeID(cut-1, y, LayerH))
	}
	return out
}
