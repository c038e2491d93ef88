package workload

import (
	"fmt"

	"swallow/internal/noc"
	"swallow/internal/sim"
)

// Flow is a host-driven token stream between two channel ends, used
// for pure network experiments (bandwidth, contention, bisection)
// without instruction-set overhead - the network-hardware-limited
// regime of Section V-D's C (communication) measurements.
//
// A flow is sending until its budget is in the network, closing until
// the END that ends its last packet (or its circuit) is accepted, and
// then closed: it closes its route exactly once, and a wake after that
// sends nothing. So once the last END has drained, a finished flow
// leaves nothing in the kernel.
type Flow struct {
	// Src and Dst are the endpoints; Src.SetDest is called at start.
	Src, Dst *noc.ChanEnd
	// Tokens is the total data-token budget.
	Tokens int
	// PacketTokens is the payload per packet before an END closes the
	// route; 0 streams the whole budget as one open circuit ended by a
	// single END.
	PacketTokens int

	state    flowState
	sent     int
	inPacket int
	received int
	done     bool

	// FirstArrival and LastArrival stamp delivery times.
	FirstArrival, LastArrival sim.Time
	started                   sim.Time
	k                         *sim.Kernel

	// pumpKick and drainKick give pump and drain their first run from
	// inside the event loop. They are value timers firing through the
	// embedded wakers, so starting a flow allocates no event.
	pumpKick, drainKick sim.Timer
	pumpFire            flowPumpFirer
	drainFire           flowDrainFirer
}

// flowState is where a flow's source is in its lifecycle.
type flowState uint8

const (
	// flowSending: data tokens (and the ENDs between packets) remain.
	flowSending flowState = iota
	// flowClosing: the budget is sent; the route's closing END is not
	// yet accepted.
	flowClosing
	// flowClosed: the route is closed for good.
	flowClosed
)

// flowPumpFirer and flowDrainFirer bind the flow's two kick timers to
// its methods without closures (sim.Waker).
type flowPumpFirer struct{ f *Flow }

func (w *flowPumpFirer) Fire() { w.f.pump() }

type flowDrainFirer struct{ f *Flow }

func (w *flowDrainFirer) Fire() { w.f.drain() }

// Done reports whether every token arrived.
func (f *Flow) Done() bool { return f.done }

// Received reports delivered data tokens.
func (f *Flow) Received() int { return f.received }

// GoodputBitsPerSec is delivered payload bits over the transfer window.
func (f *Flow) GoodputBitsPerSec() float64 {
	d := (f.LastArrival - f.started).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.received*8) / d
}

// Latency reports first-token delivery latency.
func (f *Flow) Latency() sim.Time { return f.FirstArrival - f.started }

// pump pushes tokens while the network accepts them, then closes the
// route once.
func (f *Flow) pump() {
	for f.state == flowSending {
		if f.sent >= f.Tokens {
			f.state = flowClosing
			break
		}
		if f.PacketTokens > 0 && f.inPacket == f.PacketTokens {
			if !f.Src.TryOut(noc.CtrlToken(noc.CtEnd)) {
				return
			}
			f.inPacket = 0
			continue
		}
		if !f.Src.TryOut(noc.DataToken(byte(f.sent))) {
			return
		}
		f.sent++
		f.inPacket++
	}
	if f.state != flowClosing {
		return
	}
	// The last packet, or the circuit, ends with an END. A packetised
	// flow with no budget opened no packet and has nothing to close.
	if f.PacketTokens > 0 && f.inPacket == 0 || f.Src.TryOut(noc.CtrlToken(noc.CtEnd)) {
		f.state = flowClosed
	}
}

// drain consumes arrivals.
func (f *Flow) drain() {
	for {
		tok, ok := f.Dst.TryIn()
		if !ok {
			return
		}
		if tok.Ctrl {
			continue
		}
		if f.received == 0 {
			f.FirstArrival = f.k.Now()
		}
		f.received++
		f.LastArrival = f.k.Now()
		if f.received == f.Tokens {
			f.done = true
		}
	}
}

// Start arms the flow on kernel k. A flow starts once: its kick timers
// bind to k for good.
func (f *Flow) Start(k *sim.Kernel) {
	f.k = k
	f.pumpFire.f, f.drainFire.f = f, f
	f.pumpKick.Init(k, &f.pumpFire)
	f.drainKick.Init(k, &f.drainFire)
	f.started = k.Now()
	f.Src.SetDest(f.Dst.ID())
	f.Src.SetWake(f.pump)
	f.Dst.SetWake(f.drain)
	// Pump first, drain second: registration order is firing order.
	f.pumpKick.ArmAt(k.Now())
	f.drainKick.ArmAt(k.Now())
}

// RunFlows starts every flow and advances the kernel until all
// complete or the horizon passes. It polls every horizon/1000 (at least
// a microsecond) and returns on the first poll after the last flow
// completes, with the clock on that poll. Finished flows fall silent, so
// past the last arrival the kernel fires only what the closing ENDs
// still owe the fabric (their delivery and credit returns), then nothing
// up to the poll. A kernel that runs dry while a flow is
// incomplete can never finish it — nothing is left to move a token — so
// RunFlows stops polling there, moves the clock to the deadline exactly
// as the exhausted poll loop would, and names the first stuck flow's
// channel ends in the error.
func RunFlows(k *sim.Kernel, flows []*Flow, horizon sim.Time) error {
	for _, f := range flows {
		f.Start(k)
	}
	deadline := k.Now() + horizon
	step := horizon / 1000
	if step < sim.Microsecond {
		step = sim.Microsecond
	}
	stuck := ""
	for k.Now() < deadline {
		// The last step stops at the deadline, not a step past it.
		k.RunFor(min(step, deadline-k.Now()))
		all := true
		for _, f := range flows {
			if !f.Done() {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		if k.Pending() == 0 {
			k.RunFor(deadline - k.Now())
			stuck = ": no event pending, the flows can never finish"
		}
	}
	incomplete := 0
	var sample *Flow
	for _, f := range flows {
		if !f.Done() {
			incomplete++
			if sample == nil {
				sample = f
			}
		}
	}
	return fmt.Errorf("workload: %d/%d flows incomplete after %v%s (first: %v -> %v, %d/%d tokens)",
		incomplete, len(flows), horizon, stuck, sample.Src.ID(), sample.Dst.ID(), sample.Received(), sample.Tokens)
}

// AggregateGoodput sums flow goodputs in bits per second.
func AggregateGoodput(flows []*Flow) float64 {
	total := 0.0
	for _, f := range flows {
		total += f.GoodputBitsPerSec()
	}
	return total
}
