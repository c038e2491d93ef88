// Package noc implements the Swallow interconnect: the five-wire XMOS
// links, the per-core switches with wormhole routing and credit-based
// flow control, and the channel ends that processors communicate
// through.
//
// The instruction set abstracts the network into channel communication
// (Section IV-D of the paper). A route is opened by a three-byte header
// prefixed to the first token emitted from a channel end; every link the
// route uses is held until the source emits a closing control token
// (END or PAUSE), so an unclosed route behaves as a dedicated circuit.
// Links send data in eight-bit tokens of two-bit symbols; a token's
// transmit time is 3*Ts + Tt link-clock cycles (Section V-C).
package noc

import "fmt"

// Token is the unit of transfer on a link: eight data bits plus a
// control flag.
type Token struct {
	// Ctrl marks a control token.
	Ctrl bool
	// Val carries the data byte or the control code.
	Val byte
}

// Control token codes. END and PAUSE close the route behind them; END is
// delivered to the destination channel end while PAUSE is consumed by
// the network (it frees links without terminating the message).
const (
	// CtEnd closes the route and is delivered to the receiver.
	CtEnd byte = 0x01
	// CtPause closes the route without notifying the receiver.
	CtPause byte = 0x02
	// CtAck acknowledges in request/response protocols.
	CtAck byte = 0x03
	// CtNack signals rejection in request/response protocols.
	CtNack byte = 0x04
)

// DataToken builds a data token.
func DataToken(b byte) Token { return Token{Val: b} }

// CtrlToken builds a control token.
func CtrlToken(code byte) Token { return Token{Ctrl: true, Val: code} }

// IsEnd reports whether the token is the END control token.
func (t Token) IsEnd() bool { return t.Ctrl && t.Val == CtEnd }

// IsPause reports whether the token is the PAUSE control token.
func (t Token) IsPause() bool { return t.Ctrl && t.Val == CtPause }

// ClosesRoute reports whether forwarding this token releases the
// wormhole path behind it.
func (t Token) ClosesRoute() bool { return t.IsEnd() || t.IsPause() }

// Bits is the number of wire bits a token occupies for bandwidth and
// energy accounting. The paper's Table I data rates count payload bits,
// so a token accounts for its eight bits.
const Bits = 8

func (t Token) String() string {
	if !t.Ctrl {
		return fmt.Sprintf("D%02x", t.Val)
	}
	switch t.Val {
	case CtEnd:
		return "END"
	case CtPause:
		return "PAUSE"
	case CtAck:
		return "ACK"
	case CtNack:
		return "NACK"
	}
	return fmt.Sprintf("C%02x", t.Val)
}

// ChanEndID identifies a channel end anywhere in the system: the owning
// node in the high bits, the channel-end index on that core in the low
// byte. This is the 24-bit quantity carried by route headers.
type ChanEndID uint32

// MakeChanEndID builds a channel end identifier.
func MakeChanEndID(node uint16, idx uint8) ChanEndID {
	return ChanEndID(uint32(node)<<8 | uint32(idx))
}

// Node reports the owning core's node ID.
func (c ChanEndID) Node() uint16 { return uint16(c >> 8) }

// Index reports the channel-end index on the owning core.
func (c ChanEndID) Index() uint8 { return uint8(c) }

// HeaderBytes renders the identifier as the three header tokens that
// open a route, most significant byte first.
func (c ChanEndID) HeaderBytes() [3]byte {
	return [3]byte{byte(c >> 16), byte(c >> 8), byte(c)}
}

// ChanEndIDFromHeader reassembles an identifier from header bytes.
func ChanEndIDFromHeader(h [3]byte) ChanEndID {
	return ChanEndID(uint32(h[0])<<16 | uint32(h[1])<<8 | uint32(h[2]))
}

func (c ChanEndID) String() string {
	return fmt.Sprintf("chan(%04x:%d)", c.Node(), c.Index())
}

// HeaderTokens is the route-opening overhead per packet.
const HeaderTokens = 3

// WordTokens is the number of data tokens in a 32-bit word transfer.
const WordTokens = 4

// tokenFIFO is a bounded token queue on a fixed backing array, sized
// from its capacity at construction so that no enqueue ever grows a
// slice. Pops advance the live window along the backing; a push that
// finds the window at the end slides it back to the front. Callers
// check for room first — they own the overflow diagnostics.
type tokenFIFO struct {
	buf  []Token // backing array; len(buf) is the capacity
	live []Token // queued tokens, a window into buf
}

func newTokenFIFO(capacity int) tokenFIFO {
	buf := make([]Token, capacity)
	return tokenFIFO{buf: buf, live: buf[:0]}
}

func (q *tokenFIFO) len() int   { return len(q.live) }
func (q *tokenFIFO) space() int { return len(q.buf) - len(q.live) }

// push enqueues tok; the queue must have space.
func (q *tokenFIFO) push(tok Token) {
	if len(q.live) == cap(q.live) {
		q.live = q.buf[:copy(q.buf, q.live)]
	}
	q.live = append(q.live, tok)
}

// pop dequeues the head token; the queue must be non-empty.
func (q *tokenFIFO) pop() Token {
	tok := q.live[0]
	q.live = q.live[1:]
	return tok
}

// set replaces the contents with toks, rewinding the window onto the
// front of the same backing (snapshot restore).
func (q *tokenFIFO) set(toks []Token) { q.live = q.buf[:copy(q.buf, toks)] }
