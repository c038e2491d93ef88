package noc

import (
	"fmt"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/topo"
)

// The network's fixed model parameters: the machine being modelled has
// one channel-end count, one set of buffer depths and switch latencies,
// and one routing strategy.
const (
	// ChanEndsPerCore is the number of channel-end resources per core.
	ChanEndsPerCore = 32
	// bufferTokens is the receive buffer (and so credit allowance) per
	// link, in tokens.
	bufferTokens = 8
	// chanEndBuffer is the receive buffer of a channel end, in tokens.
	chanEndBuffer = 8
	// hopLatency is the switch traversal latency added to each link hop.
	hopLatency = 4 * sim.Nanosecond
	// localLatency is the switch-to-channel-end delivery latency.
	localLatency = 4 * sim.Nanosecond
	// injectLatency is the core-to-network-hardware latency ("just
	// three cycles of latency (6 ns)", Section V-A).
	injectLatency = 6 * sim.Nanosecond
	// routePolicy is the routing strategy.
	routePolicy = topo.PolicyAdaptive
)

// Config parameterises a network build: the link timings, which are the
// network's half of an operating point, and the link-aggregation
// ablation's internal link count.
type Config struct {
	// Internal is the timing of the four package-internal links.
	Internal LinkTiming
	// External is the timing of on-board inter-package links.
	External LinkTiming
	// OffBoard is the timing of inter-slice FFC cables.
	OffBoard LinkTiming
	// InternalLinks is how many of the four package-internal links are
	// enabled (1-4); the link-aggregation ablation varies this.
	InternalLinks int
}

// OperatingConfig is the Swallow operating point of Table I: internal
// links at 250 Mbit/s, board and cable links at 62.5 Mbit/s.
func OperatingConfig() Config {
	return Config{
		Internal:      TimingInternalOperating,
		External:      TimingExternalOperating,
		OffBoard:      TimingExternalOperating,
		InternalLinks: 4,
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
	if c.InternalLinks < 1 || c.InternalLinks > topo.InternalLinksPerPackage {
		return fmt.Errorf("noc: internal links must be 1..%d, got %d",
			topo.InternalLinksPerPackage, c.InternalLinks)
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
				l := newLink(k, name, class, cfg.timingFor(class))
				ip := newLinkInPort(n.switches[peer], name+"-rx")
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
// The internal link count is fixed at construction.
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
	sw.ces = make([]*ChanEnd, ChanEndsPerCore)
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
	return sw.net.Sys.NextHop(sw.node, destNode, routePolicy)
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
