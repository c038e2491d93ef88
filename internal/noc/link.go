package noc

import (
	"fmt"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/trace"
)

// LinkTiming is the configuration of a physical link: its symbol clock
// and the two programmable delays of the five-wire protocol. A token of
// four two-bit symbols takes 3*Ts + Tt clock cycles on the wire
// (Section V-C), so the bit rate is 8 bits / ((3*Ts+Tt) cycles).
type LinkTiming struct {
	// ClockMHz is the link symbol clock.
	ClockMHz float64
	// Ts is the inter-symbol delay in clock cycles.
	Ts int
	// Tt is the inter-token delay in clock cycles.
	Tt int
}

// TokenCycles is the link-clock cycles one token occupies.
func (t LinkTiming) TokenCycles() int { return 3*t.Ts + t.Tt }

// TokenTime is the wire time of one token.
func (t LinkTiming) TokenTime() sim.Time {
	return sim.NewClock(t.ClockMHz).Cycles(int64(t.TokenCycles()))
}

// BitRate is the payload bit rate in bits per second.
func (t LinkTiming) BitRate() float64 {
	return Bits / t.TokenTime().Seconds()
}

// Standard timings. The fastest mode is Ts=2, Tt=1 ("yielding the
// aforementioned 500 Mbit/s at 500 MHz"); the Swallow operating points
// of Table I run internal links at 250 Mbit/s and external links at
// 62.5 Mbit/s to preserve signal integrity.
var (
	// TimingInternalMax is the fastest internal-link mode, ~571 Mbit/s
	// (the paper rounds to 500 Mbit/s).
	TimingInternalMax = LinkTiming{ClockMHz: 500, Ts: 2, Tt: 1}
	// TimingInternalOperating is the Table I on-chip operating point:
	// exactly 250 Mbit/s (16 cycles per token at 500 MHz).
	TimingInternalOperating = LinkTiming{ClockMHz: 500, Ts: 5, Tt: 1}
	// TimingExternalMax is the fastest external mode: 125 Mbit/s
	// (32 cycles per token).
	TimingExternalMax = LinkTiming{ClockMHz: 500, Ts: 10, Tt: 2}
	// TimingExternalOperating is the Table I board-level operating
	// point: exactly 62.5 Mbit/s (64 cycles per token).
	TimingExternalOperating = LinkTiming{ClockMHz: 500, Ts: 21, Tt: 1}
)

// LinkStats accumulates traffic and energy counters for one link (or an
// aggregate of links).
type LinkStats struct {
	// Tokens counts every token transmitted.
	Tokens uint64
	// DataTokens counts payload tokens (header bytes included: they are
	// data tokens on the wire).
	DataTokens uint64
	// CtrlTokens counts control tokens.
	CtrlTokens uint64
	// Bits counts wire bits (Tokens * 8).
	Bits uint64
	// EnergyJ is the transfer energy charged to the link.
	EnergyJ float64
	// Busy is the accumulated wire-occupied time.
	Busy sim.Time
}

// Add accumulates other into s.
func (s *LinkStats) Add(o LinkStats) {
	s.Tokens += o.Tokens
	s.DataTokens += o.DataTokens
	s.CtrlTokens += o.CtrlTokens
	s.Bits += o.Bits
	s.EnergyJ += o.EnergyJ
	s.Busy += o.Busy
}

// MeanPowerW reports the average link power over elapsed time d: the
// quantity Table I's "max link power" column measures at saturation.
func (s LinkStats) MeanPowerW(d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return s.EnergyJ / d.Seconds()
}

// EnergyPerBit reports measured joules per transferred bit.
func (s LinkStats) EnergyPerBit() float64 {
	if s.Bits == 0 {
		return 0
	}
	return s.EnergyJ / float64(s.Bits)
}

// Utilization reports the fraction of d the wire was occupied.
func (s LinkStats) Utilization(d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(d)
}

// Link is one direction of a physical connection between two switches.
// The transmitting side serializes tokens at the link's token time;
// credit-based flow control bounds in-flight tokens to the receiver's
// buffer capacity, so a stalled receiver backpressures the sender
// losslessly.
type Link struct {
	name  string
	class energy.LinkClass
	// timing is the configured link mode and tokenTime its wire time per
	// token, derived once per setTiming rather than per token.
	timing    LinkTiming
	tokenTime sim.Time
	k         *sim.Kernel

	// dst is the input port the link feeds.
	dst *inPort
	// owner is the source stream currently holding the link (wormhole).
	owner *inPort
	// outPort is the direction group this link belongs to, for
	// re-granting after release.
	outPort *outPort

	credits     int
	busyUntil   sim.Time
	energyPerBt float64

	// pumpTimer drives transmission attempts; it re-arms forever. The
	// timers are held by value and fire through the embedded firer
	// structs below, so building a link allocates no callback closures.
	pumpTimer sim.Timer
	pumpFire  linkPumpFirer

	// In-flight tokens ride a per-link FIFO instead of per-token
	// closure events: transmissions serialize, so arrival times are
	// nondecreasing and one timer walks the queue head.
	deliv      []delivery
	delivHead  int
	delivTimer sim.Timer
	delivFire  linkDelivFirer

	// Returning credits are the same shape: constant reverse-wire delay
	// from nondecreasing consume times.
	creditQ     []sim.Time
	creditHead  int
	creditTimer sim.Timer
	creditFire  linkCreditFirer

	Stats LinkStats
}

// The firer structs bind each of the link's three timer roles to a
// method without a per-link closure (sim.Waker).
type linkPumpFirer struct{ l *Link }

func (f *linkPumpFirer) Fire() { f.l.pump() }

type linkDelivFirer struct{ l *Link }

func (f *linkDelivFirer) Fire() { f.l.deliverDue() }

type linkCreditFirer struct{ l *Link }

func (f *linkCreditFirer) Fire() { f.l.creditsDue() }

// delivery is one token in flight toward the destination port.
type delivery struct {
	at  sim.Time
	tok Token
}

func newLink(k *sim.Kernel, name string, class energy.LinkClass, timing LinkTiming) *Link {
	l := &Link{
		name:        name,
		class:       class,
		k:           k,
		credits:     bufferTokens,
		energyPerBt: energy.LinkEnergyPerBit(class),
	}
	l.setTiming(timing)
	l.pumpFire.l, l.delivFire.l, l.creditFire.l = l, l, l
	l.pumpTimer.Init(k, &l.pumpFire)
	l.delivTimer.Init(k, &l.delivFire)
	l.creditTimer.Init(k, &l.creditFire)
	return l
}

// setTiming installs a link mode and its derived token time. The
// network sets every link from its class's timing in Cfg, at
// construction and in Network.Retune, which snapshot restore calls.
func (l *Link) setTiming(t LinkTiming) {
	l.timing = t
	l.tokenTime = t.TokenTime()
}

func (l *Link) String() string {
	return fmt.Sprintf("link %s (%v)", l.name, l.class)
}

// free reports whether the link can be claimed by a new packet.
func (l *Link) free() bool { return l.owner == nil }

// claim assigns the link to a stream for the duration of a packet.
func (l *Link) claim(p *inPort) {
	if l.owner != nil {
		panic("noc: claiming owned link " + l.name)
	}
	l.owner = p
}

// pump advances transmission: while the link is idle, has credit, and
// its owner stream has a token ready, transmit one token and schedule
// the next attempt.
func (l *Link) pump() {
	if l.pumpTimer.Armed() {
		return
	}
	now := l.k.Now()
	if now < l.busyUntil {
		l.armAt(l.busyUntil)
		return
	}
	if l.owner == nil || l.credits == 0 {
		return
	}
	tok, ok := l.owner.peekForOutput()
	if !ok {
		return
	}
	// Transmit.
	l.owner.consumeForOutput()
	l.credits--
	tt := l.tokenTime
	l.busyUntil = now + tt
	l.Stats.Tokens++
	l.Stats.Bits += Bits
	l.Stats.Busy += tt
	l.Stats.EnergyJ += float64(Bits) * l.energyPerBt
	if tok.Ctrl {
		l.Stats.CtrlTokens++
	} else {
		l.Stats.DataTokens++
	}
	closing := tok.ClosesRoute()
	src := l.owner
	if closing {
		// The route is released behind the closing token.
		l.owner = nil
		src.outputReleased(l)
		if l.outPort != nil {
			l.outPort.released(l)
		}
	}
	l.scheduleDelivery(l.busyUntil+hopLatency, tok)
	l.armAt(l.busyUntil)
}

func (l *Link) armAt(t sim.Time) {
	if l.pumpTimer.Armed() {
		return
	}
	l.pumpTimer.ArmAt(t)
}

// scheduleDelivery queues a transmitted token for arrival at the
// destination port.
func (l *Link) scheduleDelivery(at sim.Time, tok Token) {
	l.deliv = append(l.deliv, delivery{at: at, tok: tok})
	if !l.delivTimer.Armed() {
		l.delivTimer.ArmAt(at)
	}
}

// deliverDue hands every arrived token to the destination port and
// re-arms for the next one in flight.
func (l *Link) deliverDue() {
	rec := l.k.Recorder()
	for l.delivHead < len(l.deliv) && l.deliv[l.delivHead].at <= l.k.Now() {
		d := l.deliv[l.delivHead]
		l.deliv[l.delivHead] = delivery{}
		l.delivHead++
		if rec != nil {
			ctrl := int64(0)
			if d.tok.Ctrl {
				ctrl = 1
			}
			rec.Emit(int64(l.k.Now()), trace.KindTokenHop,
				int32(l.dst.sw.node), int64(d.tok.Val), ctrl)
		}
		l.dst.receive(d.tok, l)
	}
	if l.delivHead == len(l.deliv) {
		l.deliv = l.deliv[:0]
		l.delivHead = 0
	} else {
		// A saturated link never fully drains, so shift-compact once the
		// consumed prefix dominates to keep the queue at in-flight size.
		if l.delivHead > len(l.deliv)/2 {
			n := copy(l.deliv, l.deliv[l.delivHead:])
			clear(l.deliv[n:])
			l.deliv = l.deliv[:n]
			l.delivHead = 0
		}
		l.delivTimer.ArmAt(l.deliv[l.delivHead].at)
	}
}

// nextSend reports the earliest time the link can take another token
// from the stream that holds it: when the wire is free and, with no
// credit in hand, when the next one lands — the head of the returning
// queue, else a token time from now at the soonest, for a credit is that
// long on its way back.
func (l *Link) nextSend() sim.Time {
	at := l.busyUntil
	if l.credits == 0 {
		credit := l.k.Now() + l.tokenTime
		if l.creditHead < len(l.creditQ) {
			credit = l.creditQ[l.creditHead]
		}
		at = max(at, credit)
	}
	return at
}

// nextArrival reports the earliest time the link can hand its receiving
// port another token: the head of the in-flight queue, else more than a
// token time from now, which a transmission begun this instant would take.
func (l *Link) nextArrival() sim.Time {
	if l.delivHead < len(l.deliv) {
		return l.deliv[l.delivHead].at
	}
	return l.k.Now() + l.tokenTime
}

// returnCredit is called by the receiving port when a buffered token is
// consumed; the credit lands after the reverse-wire propagation delay.
func (l *Link) returnCredit() {
	at := l.k.Now() + l.tokenTime
	l.creditQ = append(l.creditQ, at)
	if !l.creditTimer.Armed() {
		l.creditTimer.ArmAt(at)
	}
}

// creditsDue banks every credit whose reverse-wire delay has elapsed and
// restarts transmission.
func (l *Link) creditsDue() {
	returned := false
	for l.creditHead < len(l.creditQ) && l.creditQ[l.creditHead] <= l.k.Now() {
		l.creditHead++
		l.credits++
		returned = true
	}
	if returned {
		if rec := l.k.Recorder(); rec != nil {
			rec.Emit(int64(l.k.Now()), trace.KindCreditReturn,
				int32(l.dst.sw.node), int64(l.credits), 0)
		}
	}
	if l.creditHead == len(l.creditQ) {
		l.creditQ = l.creditQ[:0]
		l.creditHead = 0
	} else {
		if l.creditHead > len(l.creditQ)/2 {
			n := copy(l.creditQ, l.creditQ[l.creditHead:])
			l.creditQ = l.creditQ[:n]
			l.creditHead = 0
		}
		l.creditTimer.ArmAt(l.creditQ[l.creditHead])
	}
	l.pump()
}
