package noc

import (
	"fmt"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/topo"
)

// Config parameterises a network build.
type Config struct {
	// Internal is the timing of the four package-internal links.
	Internal LinkTiming
	// External is the timing of on-board inter-package links.
	External LinkTiming
	// OffBoard is the timing of inter-slice FFC cables.
	OffBoard LinkTiming
	// BufferTokens is the receive buffer (and so credit allowance) per
	// link, in tokens.
	BufferTokens int
	// ChanEndBuffer is the receive buffer of a channel end, in tokens.
	ChanEndBuffer int
	// ChanEndsPerCore is the number of channel-end resources per core.
	ChanEndsPerCore int
	// InternalLinks is how many of the four package-internal links are
	// enabled (1-4); the link-aggregation ablation varies this.
	InternalLinks int
	// HopLatency is the switch traversal latency added to each link hop.
	HopLatency sim.Time
	// LocalLatency is the switch-to-channel-end delivery latency.
	LocalLatency sim.Time
	// InjectLatency is the core-to-network-hardware latency ("just
	// three cycles of latency (6 ns)", Section V-A).
	InjectLatency sim.Time
	// Policy selects the routing strategy.
	Policy topo.RoutePolicy
}

// OperatingConfig is the Swallow operating point of Table I: internal
// links at 250 Mbit/s, board and cable links at 62.5 Mbit/s.
func OperatingConfig() Config {
	return Config{
		Internal:        TimingInternalOperating,
		External:        TimingExternalOperating,
		OffBoard:        TimingExternalOperating,
		BufferTokens:    8,
		ChanEndBuffer:   8,
		ChanEndsPerCore: 32,
		InternalLinks:   4,
		HopLatency:      4 * sim.Nanosecond,
		LocalLatency:    4 * sim.Nanosecond,
		InjectLatency:   6 * sim.Nanosecond,
		Policy:          topo.PolicyAdaptive,
	}
}

// MaxRateConfig runs every link at its maximum speed (500 Mbit/s
// internal, 125 Mbit/s external), the regime of Section V-C's latency
// and bandwidth arithmetic.
func MaxRateConfig() Config {
	c := OperatingConfig()
	c.Internal = TimingInternalMax
	c.External = TimingExternalMax
	c.OffBoard = TimingExternalMax
	return c
}

func (c Config) validate() error {
	if c.BufferTokens < 1 || c.ChanEndBuffer < 1 {
		return fmt.Errorf("noc: buffers must hold at least one token")
	}
	if c.InternalLinks < 1 || c.InternalLinks > topo.InternalLinksPerPackage {
		return fmt.Errorf("noc: internal links must be 1..%d, got %d",
			topo.InternalLinksPerPackage, c.InternalLinks)
	}
	if c.ChanEndsPerCore < 1 || c.ChanEndsPerCore > 256 {
		return fmt.Errorf("noc: channel ends per core must be 1..256, got %d", c.ChanEndsPerCore)
	}
	return nil
}

// timingFor selects the link timing by physical class.
func (c Config) timingFor(class energy.LinkClass) LinkTiming {
	switch class {
	case energy.LinkOnChip:
		return c.Internal
	case energy.LinkOffBoard:
		return c.OffBoard
	default:
		return c.External
	}
}

// Network is the assembled interconnect of a system: one switch per
// core, links wired per the unwoven lattice.
type Network struct {
	K        *sim.Kernel
	Sys      topo.System
	Cfg      Config
	switches map[topo.NodeID]*Switch
	links    []*Link
	// nodes caches Sys.Nodes() so snapshot/restore walks — which must
	// allocate nothing on the warm path — need not rebuild the list.
	nodes []topo.NodeID
}

// NewNetwork builds the interconnect for sys on kernel k.
func NewNetwork(k *sim.Kernel, sys topo.System, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{K: k, Sys: sys, Cfg: cfg, switches: make(map[topo.NodeID]*Switch), nodes: sys.Nodes()}
	for _, node := range sys.Nodes() {
		n.switches[node] = newSwitch(n, node)
	}
	// Wire every physical adjacency with one unidirectional link each way.
	for _, node := range sys.Nodes() {
		sw := n.switches[node]
		for _, d := range []topo.Dir{topo.DirInternal, topo.DirNorth, topo.DirSouth, topo.DirEast, topo.DirWest} {
			peer, ok := sys.Neighbor(node, d)
			if !ok {
				continue
			}
			class, err := sys.LinkClassFor(node, d)
			if err != nil {
				return nil, err
			}
			count := 1
			if d == topo.DirInternal {
				count = cfg.InternalLinks
			}
			op := &outPort{dir: d}
			for i := 0; i < count; i++ {
				name := fmt.Sprintf("%v-%v-%d", node, d, i)
				l := newLink(k, name, class, cfg.timingFor(class), cfg.BufferTokens)
				l.hopLatency = cfg.HopLatency
				ip := newLinkInPort(n.switches[peer], name+"-rx", cfg.BufferTokens)
				l.dst = ip
				ip.upstream = l
				l.outPort = op
				op.links = append(op.links, l)
				n.links = append(n.links, l)
			}
			sw.out[d] = op
		}
	}
	return n, nil
}

// Switch returns the switch of a node.
func (n *Network) Switch(node topo.NodeID) *Switch { return n.switches[node] }

// Retune swaps the link timings of the three physical classes without
// rebuilding — the run-time half of the network's operating point.
// Structure (link counts, buffers, latencies, routing policy) is fixed
// at construction.
func (n *Network) Retune(internal, external, offBoard LinkTiming) {
	n.Cfg.Internal, n.Cfg.External, n.Cfg.OffBoard = internal, external, offBoard
	for _, l := range n.links {
		l.setTiming(n.Cfg.timingFor(l.class))
	}
}

// Links exposes every link for instrumentation.
func (n *Network) Links() []*Link { return n.links }

// StatsByClass aggregates link statistics per physical class.
func (n *Network) StatsByClass() map[energy.LinkClass]LinkStats {
	out := make(map[energy.LinkClass]LinkStats)
	for _, l := range n.links {
		s := out[l.class]
		s.Add(l.Stats)
		out[l.class] = s
	}
	return out
}

// TotalLinkEnergyJ sums transfer energy across the whole fabric.
func (n *Network) TotalLinkEnergyJ() float64 {
	e := 0.0
	for _, l := range n.links {
		e += l.Stats.EnergyJ
	}
	return e
}

// Switch is the per-core crossbar: it owns the core's channel ends and
// the output ports toward its neighbours.
type Switch struct {
	net  *Network
	node topo.NodeID
	out  map[topo.Dir]*outPort
	ces  []*ChanEnd
}

func newSwitch(n *Network, node topo.NodeID) *Switch {
	sw := &Switch{net: n, node: node, out: make(map[topo.Dir]*outPort)}
	sw.ces = make([]*ChanEnd, n.Cfg.ChanEndsPerCore)
	for i := range sw.ces {
		sw.ces[i] = newChanEnd(sw, uint8(i))
	}
	return sw
}

// Node reports the switch's position.
func (sw *Switch) Node() topo.NodeID { return sw.node }

// ChanEnd returns channel end idx on this core.
func (sw *Switch) ChanEnd(idx uint8) *ChanEnd {
	return sw.ces[int(idx)]
}

// ChanEndCount reports the number of channel-end resources on the core.
func (sw *Switch) ChanEndCount() int { return len(sw.ces) }

// AllocChanEnd claims the lowest free channel end, as the GETR
// instruction does. It returns nil when the core's channel ends are
// exhausted.
func (sw *Switch) AllocChanEnd() *ChanEnd {
	for _, ce := range sw.ces {
		if !ce.allocated {
			ce.allocated = true
			return ce
		}
	}
	return nil
}

// routeDir computes the output direction for a destination.
func (sw *Switch) routeDir(dest ChanEndID) (topo.Dir, error) {
	destNode := topo.NodeID(dest.Node())
	if destNode == sw.node {
		return topo.DirLocal, nil
	}
	return sw.net.Sys.NextHop(sw.node, destNode, sw.net.Cfg.Policy)
}

// outPort groups the parallel links of one direction; packets claim a
// free link, queueing when all are held ("a new communication will use
// the next unused link", Section V-B).
type outPort struct {
	dir     topo.Dir
	links   []*Link
	waiters []*inPort
}

// claim hands p a free link or queues it.
func (op *outPort) claim(p *inPort) *Link {
	for _, l := range op.links {
		if l.free() {
			l.claim(p)
			return l
		}
	}
	op.waiters = append(op.waiters, p)
	return nil
}

// released re-grants a freed link to the longest-waiting stream.
func (op *outPort) released(l *Link) {
	if len(op.waiters) == 0 {
		return
	}
	p := op.waiters[0]
	op.waiters = op.waiters[:copy(op.waiters, op.waiters[1:])]
	l.claim(p)
	p.outputGranted(l)
}
