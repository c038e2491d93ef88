// Package bridge models Swallow's Ethernet bridge module (Section V-E):
// a unit that attaches to the Swallow network, is addressable like any
// node, and forwards data between the channel network and a host-side
// byte stream at up to 80 Mbit/s of full-duplex bandwidth. Slices host
// up to two bridges, on their South external links.
//
// Substitution note: the physical module hangs off a South link as its
// own network node. Extending the lattice with off-grid nodes would
// complicate the routing model, so the simulated bridge claims two
// channel ends on the South-edge core it plugs into; traffic semantics,
// addressing and the 80 Mbit/s pacing are preserved.
package bridge

import (
	"fmt"

	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/trace"
)

// RateBitsPerSec is the bridge's per-direction throughput cap
// ("each bridge can support up to 80 Mbit/s of full-duplex data
// transfer").
const RateBitsPerSec = 80e6

// byteTime is the pacing interval per forwarded byte.
var byteTime = sim.Time(8 * 1e12 / RateBitsPerSec)

// Bridge is one Ethernet bridge module.
type Bridge struct {
	k    *sim.Kernel
	net  *noc.Network
	node topo.NodeID

	tx *noc.ChanEnd // bridge -> network
	rx *noc.ChanEnd // network -> bridge

	// Ingress (host to network) queue. The pacing timers are held by
	// value and fire through the embedded firer structs, so building a
	// bridge allocates no callback closures.
	sendQ   []outMsg
	inMsg   int // bytes of head message already emitted
	nextTx  sim.Time
	txTimer sim.Timer
	txFire  bridgeTxFirer

	// Egress (network to host): completed frames, END-delimited.
	frames  [][]byte
	current []byte
	nextRx  sim.Time
	rxTimer sim.Timer
	rxFire  bridgeRxFirer

	// Stats.
	BytesIn, BytesOut uint64
}

type outMsg struct {
	dest    noc.ChanEndID
	payload []byte
}

// bridgeTxFirer / bridgeRxFirer bind the two pacing roles to methods
// without per-build closures (sim.Waker).
type bridgeTxFirer struct{ b *Bridge }

func (f *bridgeTxFirer) Fire() { f.b.pumpTx() }

type bridgeRxFirer struct{ b *Bridge }

func (f *bridgeRxFirer) Fire() { f.b.pumpRx() }

// New attaches a bridge at a South-edge vertical-layer node of its
// slice, per the board design.
func New(k *sim.Kernel, net *noc.Network, node topo.NodeID) (*Bridge, error) {
	if node.Layer() != topo.LayerV {
		return nil, fmt.Errorf("bridge: node %v not on the vertical layer", node)
	}
	if node.Y()%topo.PackagesPerSliceY != topo.PackagesPerSliceY-1 {
		return nil, fmt.Errorf("bridge: node %v not on its slice's South row", node)
	}
	sw := net.Switch(node)
	if sw == nil {
		return nil, fmt.Errorf("bridge: no switch at %v", node)
	}
	b := &Bridge{k: k, net: net, node: node}
	// Claim the two highest channel ends, leaving low indices for
	// software on the host core.
	n := sw.ChanEndCount()
	b.tx = sw.ChanEnd(uint8(n - 1))
	b.rx = sw.ChanEnd(uint8(n - 2))
	b.txFire.b, b.rxFire.b = b, b
	b.txTimer.Init(k, &b.txFire)
	b.rxTimer.Init(k, &b.rxFire)
	if err := b.Attach(); err != nil {
		return nil, err
	}
	return b, nil
}

// Attach claims the bridge's two channel ends, registers the pacing
// wakes, and clears queues, pacing deadlines and statistics, leaving
// the bridge exactly as New builds it. New attaches; a machine
// re-attaches its bridges after a rewind released every channel end.
// When either end is taken it claims neither and reports the conflict.
func (b *Bridge) Attach() error {
	if !b.tx.Claim() {
		return fmt.Errorf("bridge: channel ends already claimed at %v", b.node)
	}
	if !b.rx.Claim() {
		b.tx.Free()
		return fmt.Errorf("bridge: channel ends already claimed at %v", b.node)
	}
	b.rx.SetWake(b.pumpRx)
	b.tx.SetWake(b.pumpTx)
	b.txTimer.Disarm()
	b.rxTimer.Disarm()
	b.sendQ = nil
	b.inMsg = 0
	b.nextTx, b.nextRx = 0, 0
	b.frames, b.current = nil, nil
	b.BytesIn, b.BytesOut = 0, 0
	return nil
}

// Node reports where the bridge is attached.
func (b *Bridge) Node() topo.NodeID { return b.node }

// Addr is the channel-end address cores send to to reach the host.
func (b *Bridge) Addr() noc.ChanEndID { return b.rx.ID() }

// Send queues a packet of payload bytes for a destination channel end;
// the route is closed with an END token after the payload. Transfer is
// asynchronous and paced at the Ethernet-side rate.
func (b *Bridge) Send(dest noc.ChanEndID, payload []byte) {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	b.sendQ = append(b.sendQ, outMsg{dest: dest, payload: cp})
	b.armTx(b.k.Now())
}

// SendWords queues 32-bit words (big-endian token order, matching the
// ISA's OUT/IN framing).
func (b *Bridge) SendWords(dest noc.ChanEndID, words []uint32) {
	buf := make([]byte, 0, 4*len(words))
	for _, w := range words {
		buf = append(buf, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	b.Send(dest, buf)
}

// Pending reports queued ingress messages.
func (b *Bridge) Pending() int { return len(b.sendQ) }

func (b *Bridge) armTx(t sim.Time) {
	if b.txTimer.Armed() {
		return
	}
	b.txTimer.ArmAt(maxTime(t, b.k.Now()))
}

// pumpTx emits one byte (or the closing END) per pacing interval.
func (b *Bridge) pumpTx() {
	now := b.k.Now()
	if now < b.nextTx {
		b.armTx(b.nextTx)
		return
	}
	if len(b.sendQ) == 0 {
		return
	}
	msg := &b.sendQ[0]
	if b.inMsg == 0 {
		b.tx.SetDest(msg.dest)
	}
	if b.inMsg < len(msg.payload) {
		if !b.tx.TryOut(noc.DataToken(msg.payload[b.inMsg])) {
			return // wake resumes
		}
		b.inMsg++
		b.BytesOut++
		if rec := b.k.Recorder(); rec != nil {
			rec.Emit(int64(now), trace.KindBridgeTx, int32(b.node), int64(b.BytesOut), 0)
		}
	} else {
		if !b.tx.TryOut(noc.CtrlToken(noc.CtEnd)) {
			return
		}
		b.sendQ = b.sendQ[1:]
		b.inMsg = 0
	}
	b.nextTx = now + byteTime
	if len(b.sendQ) > 0 {
		b.armTx(b.nextTx)
	}
}

func (b *Bridge) armRx(t sim.Time) {
	if b.rxTimer.Armed() {
		return
	}
	b.rxTimer.ArmAt(maxTime(t, b.k.Now()))
}

// pumpRx consumes arriving tokens at the Ethernet-side rate.
func (b *Bridge) pumpRx() {
	now := b.k.Now()
	if now < b.nextRx {
		b.armRx(b.nextRx)
		return
	}
	tok, ok := b.rx.TryIn()
	if !ok {
		return
	}
	if tok.IsEnd() {
		b.frames = append(b.frames, b.current)
		b.current = nil
	} else if !tok.Ctrl {
		b.current = append(b.current, tok.Val)
		b.BytesIn++
		if rec := b.k.Recorder(); rec != nil {
			rec.Emit(int64(now), trace.KindBridgeRx, int32(b.node), int64(b.BytesIn), 0)
		}
	}
	b.nextRx = now + byteTime
	if b.rx.InAvailable() > 0 {
		b.armRx(b.nextRx)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
