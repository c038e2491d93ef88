package noc

import (
	"swallow/internal/sim"
	"swallow/internal/topo"
)

// NetworkSnapshot is a point-in-time capture of the whole fabric:
// every channel end (allocation, destination, route and buffer state,
// wake callback), every wormhole stream's mid-packet state, every
// link's credits, in-flight tokens and statistics, and the
// Retune-managed timing of each link class. Timer registrations are
// kernel state, captured by the kernel's own snapshot; Restore here
// copies only plain component state. Pointers captured (port owners, claimed
// links, local destinations) refer to components of the same network,
// so a snapshot is only meaningful against the network it was taken
// from.
type NetworkSnapshot struct {
	internal, external, offBoard LinkTiming
	// switches in Sys.Nodes() order; links in construction order — both
	// deterministic, so parallel sweeps sharing a snapshot replay
	// byte-identically.
	switches []switchSnap
	links    []linkSnap
}

// snapDirs is the fixed direction walk for arbiters: map iteration
// order must never leak into a snapshot.
var snapDirs = [...]topo.Dir{
	topo.DirInternal, topo.DirNorth, topo.DirSouth, topo.DirEast, topo.DirWest,
}

type switchSnap struct {
	// ces holds the channel ends up to the last one not idle; the rest
	// restore to idleChanEnd.
	ces []chanEndSnap
	// outWaiters[i] holds the queued streams of snapDirs[i] (nil when
	// the switch has no port in that direction).
	outWaiters [len(snapDirs)][]*inPort
}

type chanEndSnap struct {
	allocated, destSet, routeOpen bool
	dest                          ChanEndID
	in                            []Token
	owner                         *inPort
	waiters, spaceWaiters         []*inPort
	wake                          func()
	tokensIn, tokensOut           uint64
	src                           inPortSnap
}

type inPortSnap struct {
	fifo         []Token
	hdrNeed      int
	hdr          [3]byte
	hdrSend      int
	routed       bool
	waitingGrant bool
	out          *Link
	localDst     *ChanEnd
	dropped      uint64
}

type linkSnap struct {
	owner     *inPort
	credits   int
	busyUntil sim.Time
	deliv     []delivery
	creditQ   []sim.Time
	stats     LinkStats
	dst       inPortSnap
}

func (p *inPort) snapshot() inPortSnap {
	return inPortSnap{
		fifo:         append([]Token(nil), p.fifo.live...),
		hdrNeed:      p.hdrNeed,
		hdr:          p.hdr,
		hdrSend:      p.hdrSend,
		routed:       p.routed,
		waitingGrant: p.waitingGrant,
		out:          p.out,
		localDst:     p.localDst,
		dropped:      p.DroppedTokens,
	}
}

func (p *inPort) restore(s *inPortSnap) {
	p.fifo.set(s.fifo)
	p.hdrNeed = s.hdrNeed
	p.hdr = s.hdr
	p.hdrSend = s.hdrSend
	p.routed = s.routed
	p.waitingGrant = s.waitingGrant
	p.out = s.out
	p.localDst = s.localDst
	p.DroppedTokens = s.dropped
}

// idleChanEnd is the snapshot of a channel end as NewNetwork builds it.
var idleChanEnd = chanEndSnap{src: inPortSnap{hdrNeed: HeaderTokens}}

// idle reports whether the channel end and its injection port are as
// NewNetwork builds them, so that a snapshot need not copy them: every
// field chanEndSnap captures holds its idleChanEnd value.
func (ce *ChanEnd) idle() bool {
	p := ce.src
	return !ce.allocated && !ce.destSet && !ce.routeOpen && ce.dest == 0 &&
		ce.in.len() == 0 && ce.owner == nil && len(ce.waiters) == 0 &&
		len(ce.spaceWaiters) == 0 && ce.wake == nil && ce.TokensIn == 0 && ce.TokensOut == 0 &&
		p.fifo.len() == 0 && p.hdrNeed == HeaderTokens && p.hdr == [3]byte{} && p.hdrSend == 0 &&
		!p.routed && !p.waitingGrant && p.out == nil && p.localDst == nil && p.DroppedTokens == 0
}

func (ce *ChanEnd) snapshot() chanEndSnap {
	return chanEndSnap{
		allocated:    ce.allocated,
		destSet:      ce.destSet,
		routeOpen:    ce.routeOpen,
		dest:         ce.dest,
		in:           append([]Token(nil), ce.in.live...),
		owner:        ce.owner,
		waiters:      append([]*inPort(nil), ce.waiters...),
		spaceWaiters: append([]*inPort(nil), ce.spaceWaiters...),
		wake:         ce.wake,
		tokensIn:     ce.TokensIn,
		tokensOut:    ce.TokensOut,
		src:          ce.src.snapshot(),
	}
}

func (ce *ChanEnd) restore(s *chanEndSnap) {
	ce.allocated = s.allocated
	ce.destSet = s.destSet
	ce.routeOpen = s.routeOpen
	ce.dest = s.dest
	ce.in.set(s.in)
	ce.owner = s.owner
	ce.waiters = append(ce.waiters[:0], s.waiters...)
	ce.spaceWaiters = append(ce.spaceWaiters[:0], s.spaceWaiters...)
	ce.wake = s.wake
	ce.TokensIn = s.tokensIn
	ce.TokensOut = s.tokensOut
	ce.src.restore(&s.src)
}

func (l *Link) snapshot() linkSnap {
	return linkSnap{
		owner:     l.owner,
		credits:   l.credits,
		busyUntil: l.busyUntil,
		deliv:     append([]delivery(nil), l.deliv[l.delivHead:]...),
		creditQ:   append([]sim.Time(nil), l.creditQ[l.creditHead:]...),
		stats:     l.Stats,
		dst:       l.dst.snapshot(),
	}
}

func (l *Link) restore(s *linkSnap) {
	l.owner = s.owner
	l.credits = s.credits
	l.busyUntil = s.busyUntil
	clear(l.deliv)
	l.deliv = append(l.deliv[:0], s.deliv...)
	l.delivHead = 0
	l.creditQ = append(l.creditQ[:0], s.creditQ...)
	l.creditHead = 0
	l.Stats = s.stats
	l.dst.restore(&s.dst)
}

// Snapshot captures the fabric's current state in deterministic
// (Sys.Nodes, construction) order.
func (n *Network) Snapshot() *NetworkSnapshot {
	s := &NetworkSnapshot{
		internal: n.Cfg.Internal,
		external: n.Cfg.External,
		offBoard: n.Cfg.OffBoard,
		switches: make([]switchSnap, 0, len(n.switches)),
		links:    make([]linkSnap, 0, len(n.links)),
	}
	for _, node := range n.nodes {
		sw := n.switches[node]
		last := -1
		for i, ce := range sw.ces {
			if !ce.idle() {
				last = i
			}
		}
		ss := switchSnap{ces: make([]chanEndSnap, last+1)}
		for i := range ss.ces {
			ss.ces[i] = sw.ces[i].snapshot()
		}
		for i, d := range snapDirs {
			if op, ok := sw.out[d]; ok && len(op.waiters) > 0 {
				ss.outWaiters[i] = append([]*inPort(nil), op.waiters...)
			}
		}
		s.switches = append(s.switches, ss)
	}
	for _, l := range n.links {
		s.links = append(s.links, l.snapshot())
	}
	return s
}

// SetTimings moves a snapshot taken at construction to other link
// timings, as Network.Retune moves the network: restoring it then gives
// the fabric NewNetwork would build with them.
func (s *NetworkSnapshot) SetTimings(internal, external, offBoard LinkTiming) {
	s.internal, s.external, s.offBoard = internal, external, offBoard
}

// Restore rewinds the fabric to a prior Snapshot of the same network,
// reusing buffer capacity so a warm restore allocates nothing.
func (n *Network) Restore(s *NetworkSnapshot) {
	n.Retune(s.internal, s.external, s.offBoard)
	for si, node := range n.nodes {
		sw := n.switches[node]
		ss := &s.switches[si]
		for i, ce := range sw.ces {
			if i < len(ss.ces) {
				ce.restore(&ss.ces[i])
			} else {
				ce.restore(&idleChanEnd)
			}
		}
		for i, d := range snapDirs {
			op, ok := sw.out[d]
			if !ok {
				continue
			}
			clear(op.waiters)
			op.waiters = append(op.waiters[:0], ss.outWaiters[i]...)
		}
	}
	for i, l := range n.links {
		l.restore(&s.links[i])
	}
}
