package noc

import (
	"fmt"

	"swallow/internal/sim"
	"swallow/internal/topo"
)

// inPort is one token stream entering a switch: either the receive side
// of a link or the output of a local channel end. It runs the wormhole
// state machine: collect the three-byte route header, claim an output
// (a link toward the next switch, or a local channel end), forward
// tokens until a route-closing control token passes, then reset.
type inPort struct {
	sw   *Switch
	name string

	fifo tokenFIFO

	// upstream is the link feeding this port (credit return), nil when
	// the port is fed by a local channel end.
	upstream *Link
	// srcChan is the channel end feeding this port, nil for link ports.
	srcChan *ChanEnd

	// Header collection state.
	hdrNeed int
	hdr     [3]byte
	// hdrSend is how many collected header bytes still need forwarding
	// on the claimed output link (local deliveries strip the header).
	hdrSend int

	routed bool
	// waitingGrant marks the stream as queued on an output arbiter so a
	// stray nudge cannot enqueue it twice.
	waitingGrant bool
	out          *Link
	localDst     *ChanEnd

	// nudgeTimer coalesces re-entrant process() nudges. It is held by
	// value and targets the port itself (Fire), so building a port
	// allocates no callback closure.
	nudgeTimer sim.Timer

	// DroppedTokens counts protocol errors (control tokens arriving
	// where a header byte was expected).
	DroppedTokens uint64
}

// Fire implements sim.Waker: a nudge (or an injection kick from the
// port's channel end) runs one process pass.
func (p *inPort) Fire() { p.process() }

func newLinkInPort(sw *Switch, name string) *inPort {
	p := &inPort{sw: sw, name: name, fifo: newTokenFIFO(bufferTokens), hdrNeed: HeaderTokens}
	p.nudgeTimer.Init(sw.net.K, p)
	return p
}

// newChanInPort builds a channel end's injection port. Its FIFO holds a
// full header plus a word so a single OUT instruction never deadlocks
// half-injected.
func newChanInPort(ce *ChanEnd) *inPort {
	p := &inPort{
		sw:      ce.sw,
		name:    ce.ID().String() + "-tx",
		fifo:    newTokenFIFO(chanEndBuffer + HeaderTokens + 1),
		srcChan: ce,
		hdrNeed: HeaderTokens,
	}
	p.nudgeTimer.Init(ce.sw.net.K, p)
	return p
}

func (p *inPort) String() string { return fmt.Sprintf("inport %s", p.name) }

// space reports free buffer slots (used by channel-end sources).
func (p *inPort) space() int { return p.fifo.space() }

// receive accepts a token from the upstream link. Credit flow control
// guarantees buffer space; overflow is an invariant violation.
func (p *inPort) receive(tok Token, from *Link) {
	if p.fifo.space() == 0 {
		panic(fmt.Sprintf("noc: %s overflow (credit protocol violated)", p.name))
	}
	p.fifo.push(tok)
	p.process()
}

// push enqueues a token from a local channel-end source.
func (p *inPort) push(tok Token) {
	if p.fifo.space() == 0 {
		panic(fmt.Sprintf("noc: %s overflow from channel end", p.name))
	}
	p.fifo.push(tok)
}

// consume pops the head token and returns flow-control resources to the
// feeder.
func (p *inPort) consume() Token {
	tok := p.fifo.pop()
	if p.upstream != nil {
		p.upstream.returnCredit()
	}
	if p.srcChan != nil {
		p.srcChan.outSpaceFreed()
	}
	return tok
}

// nudge schedules a process pass as a kernel event, breaking
// re-entrancy when one component pokes another.
func (p *inPort) nudge() {
	if p.nudgeTimer.Armed() {
		return
	}
	p.nudgeTimer.ArmAt(p.sw.net.K.Now())
}

// process advances the stream state machine as far as it can.
func (p *inPort) process() {
	for {
		if !p.routed {
			if !p.collectHeaderAndRoute() {
				return
			}
		}
		if p.out != nil {
			// Link output: the link pulls from us.
			p.out.pump()
			return
		}
		// Local delivery.
		if !p.deliverLocal() {
			return
		}
	}
}

// collectHeaderAndRoute consumes header bytes and claims an output.
// It reports whether the stream became routed.
func (p *inPort) collectHeaderAndRoute() bool {
	if p.waitingGrant {
		return false
	}
	for p.hdrNeed > 0 {
		if p.fifo.len() == 0 {
			return false
		}
		tok := p.consume()
		if tok.Ctrl {
			// A control token where a header byte belongs: a stray
			// END/PAUSE between packets. Drop it.
			p.DroppedTokens++
			continue
		}
		p.hdr[HeaderTokens-p.hdrNeed] = tok.Val
		p.hdrNeed--
	}
	dest := ChanEndIDFromHeader(p.hdr)
	dir, err := p.sw.routeDir(dest)
	if err != nil {
		panic(fmt.Sprintf("noc: %s cannot route %v: %v", p.name, dest, err))
	}
	if dir == topo.DirLocal {
		ce := p.sw.ChanEnd(dest.Index())
		if !ce.claimLocal(p) {
			p.waitingGrant = true
			return false // queued; claim grant will nudge us
		}
		p.localDst = ce
		p.routed = true
		return true
	}
	op, ok := p.sw.out[dir]
	if !ok {
		panic(fmt.Sprintf("noc: %s routed %v via %v but no such port on %v", p.name, dest, dir, p.sw.node))
	}
	l := op.claim(p)
	if l == nil {
		// All links of the direction are held; we were queued and will
		// be granted via outputGranted.
		p.waitingGrant = true
		return false
	}
	p.out = l
	p.hdrSend = HeaderTokens
	p.routed = true
	return true
}

// outputGranted is called by an output port arbiter when a queued
// stream receives a link.
func (p *inPort) outputGranted(l *Link) {
	p.waitingGrant = false
	p.out = l
	p.hdrSend = HeaderTokens
	p.routed = true
	p.nudge()
}

// localGranted is called when a queued local claim succeeds.
func (p *inPort) localGranted(ce *ChanEnd) {
	p.waitingGrant = false
	p.localDst = ce
	p.routed = true
	p.nudge()
}

// outputReleased is called by the link after it transmits a
// route-closing token from this stream.
func (p *inPort) outputReleased(l *Link) {
	p.out = nil
	p.routed = false
	p.hdrNeed = HeaderTokens
	p.hdrSend = 0
	// Remaining buffered tokens belong to the next packet.
	p.nudge()
}

// peekForOutput exposes the next token the claimed link should send:
// re-injected header bytes first, then buffered stream tokens.
func (p *inPort) peekForOutput() (Token, bool) {
	if p.hdrSend > 0 {
		return DataToken(p.hdr[HeaderTokens-p.hdrSend]), true
	}
	if p.fifo.len() == 0 {
		return Token{}, false
	}
	return p.fifo.live[0], true
}

// consumeForOutput commits the token peekForOutput exposed.
func (p *inPort) consumeForOutput() {
	if p.hdrSend > 0 {
		p.hdrSend--
		return
	}
	p.consume()
}

// deliverLocal moves buffered tokens into the destination channel end.
// It reports false when it must wait (buffer full or more tokens needed).
func (p *inPort) deliverLocal() bool {
	for p.fifo.len() > 0 {
		tok := p.fifo.live[0]
		if tok.IsPause() {
			// PAUSE frees the route but is not delivered.
			p.consume()
			p.releaseLocal()
			return true // back to header collection for the next packet
		}
		if !p.localDst.deliver(tok, p) {
			return false // chanend full; it will nudge us on space
		}
		p.consume()
		if tok.IsEnd() {
			p.releaseLocal()
			return true
		}
	}
	return false
}

// releaseLocal ends the packet's claim on the local destination.
func (p *inPort) releaseLocal() {
	ce := p.localDst
	p.localDst = nil
	p.routed = false
	p.hdrNeed = HeaderTokens
	ce.releaseLocal()
}
