package noc

import (
	"fmt"
	"testing"

	"swallow/internal/sim"
	"swallow/internal/topo"
)

// TestQuietUntil walks the question the counted-stall path asks of a
// channel end — can anything wake it, free a slot of its injection port
// or land a token in its receive buffer up to and including t — through
// every state that decides it, on one package-internal stream at the
// operating point: 32 ns a token, 4 ns of hop and of delivery latency,
// 6 ns to inject. Each answer is taken just short of the bound and on it,
// and asking moves nothing: the question is answered from state the
// fabric already holds.
func TestQuietUntil(t *testing.T) {
	const ns = sim.Nanosecond
	k, n := testNet(t, 1, 1, OperatingConfig())
	v := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	h := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH))
	src, dst := v.ChanEnd(0), h.ChanEnd(0)
	src.SetDest(dst.ID())
	// The wake timers only run for a registered user.
	src.SetWake(func() {})
	dst.SetWake(func() {})

	ask := func(name string, ce *ChanEnd, in sim.Time, reads, want bool) {
		t.Helper()
		before := fmt.Sprint(k.Seq(), k.Fired(), k.Pending())
		if got := ce.QuietUntil(k.Now()+in, reads); got != want {
			t.Errorf("%s: QuietUntil(now+%v, reads=%v) = %v, want %v", name, in, reads, got, want)
		}
		if after := fmt.Sprint(k.Seq(), k.Fired(), k.Pending()); after != before {
			t.Errorf("%s: asking moved the kernel: seq/fired/pending %s -> %s", name, before, after)
		}
	}

	// A fresh injection port: tokens pushed, the inject kick pending, no
	// route yet. It will consume — the header — at the kick.
	src.TryOut(DataToken(1))
	ask("unrouted injection port", src, 1*ns, false, false)

	// Open the route with that token and let everything settle: dst is
	// held by the link port the stream enters by, nothing is in flight.
	k.RunFor(sim.Microsecond)
	if k.Pending() != 0 || dst.InAvailable() != 1 {
		t.Fatalf("stage: %d events pending, %d tokens at dst, want 0 and 1", k.Pending(), dst.InAvailable())
	}
	ask("held input, idle link", dst, 31*ns, true, true)
	ask("held input, a token time away", dst, 32*ns, true, false)
	// Nobody sends to the sender: a reader cannot be promised anything,
	// and anyone else only what the delivery latency covers.
	ask("unheld input, reader", src, 1*ns, true, false)
	ask("unheld input, inside the delivery latency", src, 4*ns-1, false, true)
	ask("unheld input, at the delivery latency", src, 4*ns, false, false)

	// One token on its way: injected at +6, on the wire 32, a hop of 4.
	src.TryOut(DataToken(2))
	k.RunFor(10 * ns)
	ask("in flight, before it lands", dst, 31*ns, true, true)
	ask("in flight, as it lands", dst, 32*ns, true, false)
	k.RunFor(33 * ns) // landed at +42: the wake is due at +46
	if !dst.WakeDue(k.Now()+3*ns) || dst.WakeDue(k.Now()+3*ns-1) {
		t.Fatalf("stage: wake not pending for now+3ns exactly")
	}
	ask("wake pending, later", dst, 3*ns-1, false, true)
	ask("wake pending, due", dst, 3*ns, false, false)
	k.RunFor(sim.Microsecond)

	// A busy injection port, routed onto its link: it gives up a slot when
	// the wire next frees.
	fill := func() {
		for src.TryOut(DataToken(3)) {
		}
	}
	fill()
	k.RunFor(36 * ns) // first token sent at +6: the wire is busy to +38
	ask("routed, wire busy", src, 2*ns-1, false, true)
	ask("routed, wire free", src, 2*ns, false, false)

	// Nobody drains dst: its buffer fills, the port behind it fills, the
	// link runs out of credit and stops with nothing on its way back.
	src.SetWake(fill)
	k.RunFor(10 * sim.Microsecond)
	src.SetWake(func() {})
	if k.Pending() != 0 || src.OutSpace() != 0 {
		t.Fatalf("stage: %d events pending, %d slots free at src, want a stalled stream", k.Pending(), src.OutSpace())
	}
	ask("out of credit, none returning", src, 4*ns-1, false, true)
	ask("full input, stalled owner, reader", dst, 1*ns, true, false)
	ask("full input, stalled owner, writer", dst, 1*ns, false, true)
	// One token drained: the stalled port delivers, consumes, and a
	// credit starts back — a token time on the reverse wire.
	dst.TryIn()
	k.RunFor(30 * ns)
	ask("out of credit, one returning later", src, 2*ns-1, false, true)
	ask("out of credit, one landing", src, 2*ns, false, false)

	// A stream that never leaves the switch is held by a channel-end
	// source port, not a link: refused for a reader.
	a, b := v.ChanEnd(1), v.ChanEnd(2)
	a.SetDest(b.ID())
	a.TryOut(DataToken(4))
	k.RunFor(sim.Microsecond)
	if b.InAvailable() != 1 {
		t.Fatalf("stage: local token not delivered")
	}
	ask("input held by a local source", b, 1*ns, true, false)
}
