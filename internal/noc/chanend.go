package noc

import (
	"fmt"

	"swallow/internal/sim"
	"swallow/internal/trace"
)

// ChanEnd is one channel-end resource of a core: the endpoint the ISA's
// OUT/IN/OUTCT/CHKCT instructions operate on. Output tokens flow through
// the core's switch into the network (a three-byte header opening the
// route on first use); input tokens arrive into a bounded buffer with
// credit backpressure all the way to the sender.
type ChanEnd struct {
	sw  *Switch
	idx uint8

	allocated bool
	dest      ChanEndID
	destSet   bool
	routeOpen bool

	// src is this channel end's injection port into the switch.
	src *inPort

	// in is the receive buffer.
	in tokenFIFO

	// owner is the packet stream currently delivering to this channel
	// end; concurrent senders interleave at packet granularity.
	owner   *inPort
	waiters []*inPort
	// spaceWaiters are streams stalled on a full receive buffer.
	spaceWaiters []*inPort

	// wake is invoked when progress becomes possible: tokens arrived,
	// or output space freed. wakeTimer carries the firing; it reads the
	// current wake at fire time, so SetWake needs no rescheduling.
	wake      func()
	wakeTimer sim.Timer
	wakeFire  chanWakeFirer

	// injectTimer kicks the injection port after the core-to-network
	// latency; one pending kick covers every token pushed before it.
	// Both timers are value-held and fire through preallocated wakers,
	// so building a channel end allocates no callback closures.
	injectTimer sim.Timer

	// Stats.
	TokensIn  uint64
	TokensOut uint64
}

// chanWakeFirer fires the channel end's current wake callback; reading
// ce.wake at fire time keeps SetWake free of rescheduling.
type chanWakeFirer struct{ ce *ChanEnd }

func (f *chanWakeFirer) Fire() {
	ce := f.ce
	if rec := ce.sw.net.K.Recorder(); rec != nil {
		rec.Emit(int64(ce.sw.net.K.Now()), trace.KindChanWake,
			int32(ce.sw.node), int64(ce.idx), 0)
	}
	if fn := ce.wake; fn != nil {
		fn()
	}
}

func newChanEnd(sw *Switch, idx uint8) *ChanEnd {
	ce := &ChanEnd{sw: sw, idx: idx, in: newTokenFIFO(chanEndBuffer)}
	ce.src = newChanInPort(ce)
	ce.wakeFire.ce = ce
	ce.wakeTimer.Init(sw.net.K, &ce.wakeFire)
	// The injection kick is exactly a process pass on the source port.
	ce.injectTimer.Init(sw.net.K, ce.src)
	return ce
}

// ID reports the globally routable identifier of this channel end.
func (ce *ChanEnd) ID() ChanEndID {
	return MakeChanEndID(uint16(ce.sw.node), ce.idx)
}

// Claim marks the channel end allocated from the host side (bridges,
// instrumentation), reporting false if it was already taken.
func (ce *ChanEnd) Claim() bool {
	if ce.allocated {
		return false
	}
	ce.allocated = true
	return true
}

// Free releases the resource, as FREER does.
func (ce *ChanEnd) Free() { ce.allocated = false }

// SetDest programs the destination, as SETD does.
func (ce *ChanEnd) SetDest(d ChanEndID) {
	ce.dest = d
	ce.destSet = true
}

// SetWake registers the progress callback (one per channel end; cores
// multiplex their own threads).
func (ce *ChanEnd) SetWake(fn func()) { ce.wake = fn }

func (ce *ChanEnd) String() string { return ce.ID().String() }

// OutNeed reports the injection-port slots emitting n tokens takes right
// now: the three header bytes go in ahead of them when the route is
// closed.
func (ce *ChanEnd) OutNeed(n int) int {
	if !ce.routeOpen {
		n += HeaderTokens
	}
	return n
}

// OutSpace reports the free slots of the injection port.
func (ce *ChanEnd) OutSpace() int { return ce.src.space() }

// CanOut reports whether TryOut would accept a token right now.
func (ce *ChanEnd) CanOut() bool { return ce.src.space() >= ce.OutNeed(1) }

// TryOut attempts to emit one token. The first token after a closed
// route injects the three header bytes ahead of it. It reports false
// when the output path is backpressured; the wake callback fires when
// space frees.
func (ce *ChanEnd) TryOut(tok Token) bool {
	if !ce.routeOpen && !ce.destSet {
		panic(fmt.Sprintf("noc: %v output with no destination set", ce))
	}
	if !ce.CanOut() {
		return false
	}
	if !ce.routeOpen {
		h := ce.dest.HeaderBytes()
		for _, b := range h {
			ce.src.push(DataToken(b))
		}
		ce.routeOpen = true
	}
	ce.src.push(tok)
	ce.TokensOut++
	if tok.ClosesRoute() {
		ce.routeOpen = false
	}
	// The core-to-network interface adds a few cycles of latency. Tokens
	// are already in the FIFO, so the earliest pending kick serves them
	// all.
	ce.injectTimer.ArmEarliest(ce.sw.net.K.Now() + injectLatency)
	return true
}

// OutWord emits the four tokens of a 32-bit word, most significant byte
// first, reporting false (and emitting nothing) if there is no room for
// all four.
func (ce *ChanEnd) OutWord(v uint32) bool {
	if ce.src.space() < ce.OutNeed(WordTokens) {
		return false
	}
	for shift := 24; shift >= 0; shift -= 8 {
		if !ce.TryOut(DataToken(byte(v >> shift))) {
			panic("noc: OutWord lost space mid-word")
		}
	}
	return true
}

// outSpaceFreed is called when the injection port consumes a token.
func (ce *ChanEnd) outSpaceFreed() { ce.scheduleWake() }

// InAvailable reports buffered input tokens.
func (ce *ChanEnd) InAvailable() int { return ce.in.len() }

// PeekIn returns the head input token without consuming it.
func (ce *ChanEnd) PeekIn() (Token, bool) {
	if ce.in.len() == 0 {
		return Token{}, false
	}
	return ce.in.live[0], true
}

// TryIn consumes one input token, reporting false when none is
// buffered.
func (ce *ChanEnd) TryIn() (Token, bool) {
	if ce.in.len() == 0 {
		return Token{}, false
	}
	tok := ce.in.pop()
	ce.TokensIn++
	// Space freed: nudge any stalled deliverers. A nudge only arms the
	// port's timer, so the list is never appended to mid-walk and can be
	// truncated in place afterwards.
	for _, p := range ce.spaceWaiters {
		p.nudge()
	}
	ce.spaceWaiters = ce.spaceWaiters[:0]
	return tok, true
}

// InWord consumes four buffered tokens as a 32-bit word. It reports
// false without consuming anything when fewer than four data tokens are
// buffered (a control token mid-word is a protocol error and panics).
func (ce *ChanEnd) InWord() (uint32, bool) {
	if ce.in.len() < WordTokens {
		return 0, false
	}
	var v uint32
	for _, tok := range ce.in.live[:WordTokens] {
		if tok.Ctrl {
			panic(fmt.Sprintf("noc: %v control token mid-word", ce))
		}
		v = v<<8 | uint32(tok.Val)
	}
	for i := 0; i < WordTokens; i++ {
		ce.TryIn()
	}
	return v, true
}

// deliver is called by the switch's local delivery path.
func (ce *ChanEnd) deliver(tok Token, from *inPort) bool {
	if ce.in.space() == 0 {
		ce.spaceWaiters = append(ce.spaceWaiters, from)
		return false
	}
	ce.in.push(tok)
	ce.scheduleWakeAfter(localLatency)
	return true
}

// claimLocal gives a packet stream exclusive delivery rights.
func (ce *ChanEnd) claimLocal(p *inPort) bool {
	if ce.owner == nil {
		ce.owner = p
		return true
	}
	ce.waiters = append(ce.waiters, p)
	return false
}

// releaseLocal ends a packet's delivery claim and admits the next.
func (ce *ChanEnd) releaseLocal() {
	ce.owner = nil
	if len(ce.waiters) > 0 {
		next := ce.waiters[0]
		// Shift rather than re-slice, so the list keeps its capacity.
		ce.waiters = ce.waiters[:copy(ce.waiters, ce.waiters[1:])]
		ce.owner = next
		next.localGranted(ce)
	}
}

// WakeDue reports whether a wake of the channel end is pending for time t
// or before.
func (ce *ChanEnd) WakeDue(t sim.Time) bool {
	return ce.wakeTimer.Armed() && ce.wakeTimer.When() <= t
}

// QuietUntil reports whether the channel end provably stays as its
// blocked user last saw it up to and including time t: no wake of it
// fires, its injection port frees no slot, and — for a user that reads
// the receive buffer (reads) — no token lands in it. It answers from
// what the fabric already holds, and says no whenever that does not
// settle it:
//
//   - a wake already pending must fire after t;
//   - the injection port gives up a slot only when something consumes
//     from it, so it is empty, or routed onto a link that can take
//     nothing before t (Link.nextSend) — one still collecting its
//     header, delivering locally or queued for an output is refused;
//   - only the stream that holds the receive buffer (owner) delivers
//     into it, and no other can take its place before its packet ends,
//     so that stream enters by a link, has nothing buffered, and its
//     link's next arrival is after t (Link.nextArrival);
//   - failing that, a user that does not read the buffer is still not
//     woken in time if t is less than the delivery latency away: a
//     token landing from now on wakes it localLatency later.
//
// The channel end's user must itself stay away until t; QuietUntil
// speaks only for the fabric.
func (ce *ChanEnd) QuietUntil(t sim.Time, reads bool) bool {
	if ce.WakeDue(t) {
		return false
	}
	if p := ce.src; p.fifo.len() > 0 && (p.out == nil || p.out.nextSend() <= t) {
		return false
	}
	if o := ce.owner; o != nil && o.upstream != nil && o.fifo.len() == 0 && o.upstream.nextArrival() > t {
		return true
	}
	return !reads && ce.sw.net.K.Now()+localLatency > t
}

func (ce *ChanEnd) scheduleWake() { ce.scheduleWakeAfter(0) }

// scheduleWakeAfter coalesces progress notifications: the state a later
// wake would observe is already visible to the earliest pending one, and
// every further state change schedules a wake of its own.
func (ce *ChanEnd) scheduleWakeAfter(d sim.Time) {
	if ce.wake == nil {
		return
	}
	ce.wakeTimer.ArmEarliest(ce.sw.net.K.Now() + d)
}
