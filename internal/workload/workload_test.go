package workload

import (
	"fmt"
	"math"
	"testing"

	"swallow/internal/core"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/xs1"
)

func node(x, y int, l topo.Layer) topo.NodeID { return topo.MakeNodeID(x, y, l) }

func chanID(n topo.NodeID, idx uint8) noc.ChanEndID {
	return noc.MakeChanEndID(uint16(n), idx)
}

func TestBusyLoopThreadValidation(t *testing.T) {
	for _, n := range []int{0, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BusyLoop(%d) did not panic", n)
				}
			}()
			BusyLoop(n, 10)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("HeavyLoad(0) did not panic")
			}
		}()
		HeavyLoad(0, 10)
	}()
}

func TestBusyLoopRuns(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	n := node(0, 0, topo.LayerV)
	if err := m.Load(n, BusyLoop(8, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	c := m.Core(n)
	if c.InstrCount < 8*2*2000 {
		t.Errorf("instr count %d too low for 8 threads", c.InstrCount)
	}
}

func TestHeavyLoadHitsEq1Power(t *testing.T) {
	// The calibrated heavy mix at 4 threads, 500 MHz: ~193 mW.
	m := core.MustNew(1, 1, core.Options{})
	n := node(0, 0, topo.LayerV)
	if err := m.Load(n, HeavyLoad(4, 30000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	c := m.Core(n)
	elapsed := c.LastIssue.Seconds()
	powerW := c.BackgroundPowerW() + c.DynamicEnergyJ()/elapsed
	if math.Abs(powerW-0.193) > 0.012 {
		t.Errorf("heavy load core power = %.1f mW, want ~193", powerW*1e3)
	}
}

func TestStreamPrograms(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	tx := node(0, 0, topo.LayerV)
	rx := node(0, 0, topo.LayerH)
	const words = 50
	if err := m.Load(rx, StreamRx(words)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(tx, StreamTx(chanID(rx, 0), words)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := uint32(words * (words - 1) / 2)
	got := m.Core(rx).DebugTrace
	if len(got) != 1 || got[0] != want {
		t.Fatalf("sum = %v, want %d", got, want)
	}
}

func TestPingPongPrograms(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	a := node(0, 0, topo.LayerV)
	b := node(0, 1, topo.LayerV)
	const rounds = 10
	if err := m.Load(b, PingRx(chanID(a, 0), rounds)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(a, PingTx(chanID(b, 0), rounds)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	trace := m.Core(a).DebugTrace
	if len(trace) != rounds {
		t.Fatalf("rounds recorded = %d, want %d", len(trace), rounds)
	}
	for i, rtt := range trace {
		// Round trips in reference ticks (10 ns); must be positive and
		// well under 100 us.
		if rtt == 0 || rtt > 10000 {
			t.Errorf("round %d rtt = %d ticks", i, rtt)
		}
	}
}

func TestPipelineAcrossCores(t *testing.T) {
	// source -> stage1 -> stage2 -> sink across four cores.
	m := core.MustNew(1, 1, core.Options{})
	src := node(0, 0, topo.LayerV)
	s1 := node(0, 0, topo.LayerH)
	s2 := node(0, 1, topo.LayerV)
	sink := node(0, 1, topo.LayerH)
	const count = 20
	if err := m.Load(sink, PipelineSink(count)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(s2, PipelineStage(chanID(sink, 0), count, 100)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(s1, PipelineStage(chanID(s2, 0), count, 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(src, PipelineSource(chanID(s1, 0), count)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Sum of (i + 110) for i in 0..19.
	want := uint32(count*(count-1)/2 + count*110)
	got := m.Core(sink).DebugTrace
	if len(got) != 1 || got[0] != want {
		t.Fatalf("pipeline sum = %v, want %d", got, want)
	}
}

func TestClientServerFarm(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	server := node(0, 0, topo.LayerV)
	clients := []topo.NodeID{node(0, 0, topo.LayerH), node(0, 1, topo.LayerV)}
	const perClient = 8
	if err := m.Load(server, ServerProgram(perClient*len(clients))); err != nil {
		t.Fatal(err)
	}
	for _, cn := range clients {
		if err := m.Load(cn, ClientProgram(chanID(server, 0), perClient)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, cn := range clients {
		trace := m.Core(cn).DebugTrace
		if len(trace) != 1 || trace[0] != perClient {
			t.Fatalf("client %v correct replies = %v, want %d", cn, trace, perClient)
		}
	}
}

func TestSharedMemoryEmulation(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	server := node(0, 0, topo.LayerV)
	client := node(1, 2, topo.LayerH) // several hops away
	const words = 16
	if err := m.Load(server, memServer(2*words)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(client, memClient(chanID(server, 0), words)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	trace := m.Core(client).DebugTrace
	if len(trace) != 1 || trace[0] != words {
		t.Fatalf("read-back correct = %v, want %d", trace, words)
	}
}

func TestFlowGoodput(t *testing.T) {
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &Flow{
		Src:    net.Switch(node(0, 0, topo.LayerV)).ChanEnd(0),
		Dst:    net.Switch(node(0, 1, topo.LayerV)).ChanEnd(0),
		Tokens: 2000,
	}
	if err := RunFlows(k, []*Flow{f}, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !f.Done() || f.Received() != 2000 {
		t.Fatalf("flow incomplete: %d", f.Received())
	}
	// A single open circuit on a 62.5 Mbit/s vertical link: goodput
	// close to wire rate (header amortised over 2000 tokens).
	g := f.GoodputBitsPerSec() / 1e6
	if math.Abs(g-62.5) > 2 {
		t.Errorf("circuit goodput = %.1f Mbit/s, want ~62.5", g)
	}
	if f.Latency() <= 0 {
		t.Error("latency not positive")
	}
}

func TestFlowPacketized(t *testing.T) {
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &Flow{
		Src:          net.Switch(node(0, 0, topo.LayerV)).ChanEnd(0),
		Dst:          net.Switch(node(0, 1, topo.LayerV)).ChanEnd(0),
		Tokens:       280,
		PacketTokens: 28,
	}
	if err := RunFlows(k, []*Flow{f}, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// 28-byte packets: goodput ~87.5% of 62.5 Mbit/s.
	g := f.GoodputBitsPerSec() / 1e6
	if math.Abs(g-0.875*62.5) > 3 {
		t.Errorf("packetised goodput = %.1f Mbit/s, want ~%.1f", g, 0.875*62.5)
	}
}

// TestFinishedFlowGoesQuiet pins that a flow closes its route exactly
// once: every link of the route carries the budget and one header + END
// per packet, the source emits one END per packet, and once RunFlows
// returns the kernel holds nothing and a further millisecond fires
// nothing. A circuit that re-opened its route on every wake after its
// END left events pending and fired tens of thousands in that
// millisecond.
func TestFinishedFlowGoesQuiet(t *testing.T) {
	for _, tc := range []struct {
		name           string
		tokens, packet int
		packets        uint64
	}{
		{"circuit", 2000, 0, 1},
		{"packets-280/28", 280, 28, 10},
		{"packets-290/28", 290, 28, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
			if err != nil {
				t.Fatal(err)
			}
			f := &Flow{
				Src:          net.Switch(node(0, 0, topo.LayerV)).ChanEnd(0),
				Dst:          net.Switch(node(0, 1, topo.LayerV)).ChanEnd(0),
				Tokens:       tc.tokens,
				PacketTokens: tc.packet,
			}
			if err := RunFlows(k, []*Flow{f}, 100*sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			// Per packet, a three-byte header and the END that closes it.
			want := uint64(tc.tokens) + tc.packets*(noc.HeaderTokens+1)
			hops := 0
			for _, l := range net.Links() {
				if l.Stats.Tokens == 0 {
					continue
				}
				hops++
				if l.Stats.Tokens != want {
					t.Errorf("link %v carried %d tokens, want %d", l, l.Stats.Tokens, want)
				}
			}
			if hops == 0 {
				t.Fatal("no link carried the flow")
			}
			if got, want := f.Src.TokensOut, uint64(tc.tokens)+tc.packets; got != want {
				t.Errorf("source emitted %d tokens, want %d (data + one END per packet)", got, want)
			}
			if n := k.Pending(); n != 0 {
				t.Errorf("%d events pending after the flow finished", n)
			}
			fired, seq := k.Fired(), k.Seq()
			k.RunFor(sim.Millisecond)
			if k.Fired() != fired || k.Seq() != seq {
				t.Errorf("a finished flow fired %d events (%d armed) in a further millisecond",
					k.Fired()-fired, k.Seq()-seq)
			}
		})
	}
}

// TestFinishedFlowLeavesSharedLinkAlone runs a short circuit beside a
// long packetised flow over one vertical link. Once the circuit has
// closed, the link is the packetised flow's alone: it carries exactly
// what both flows owe, and the live flow's goodput is its own.
func TestFinishedFlowLeavesSharedLinkAlone(t *testing.T) {
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := net.Switch(node(0, 0, topo.LayerV)), net.Switch(node(0, 1, topo.LayerV))
	circuit := &Flow{Src: src.ChanEnd(0), Dst: dst.ChanEnd(0), Tokens: 200}
	live := &Flow{Src: src.ChanEnd(1), Dst: dst.ChanEnd(1), Tokens: 3000, PacketTokens: 16}
	if err := RunFlows(k, []*Flow{circuit, live}, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// 200 data + header + END, and 3 000 data + 188 packets' header + END.
	const want = 204 + 3752
	shared := 0
	for _, l := range net.Links() {
		if l.Stats.Tokens == 0 {
			continue
		}
		shared++
		if l.Stats.Tokens != want {
			t.Errorf("shared link %v carried %d tokens, want %d", l, l.Stats.Tokens, want)
		}
	}
	if shared != 1 {
		t.Fatalf("%d links carried traffic, want the one shared link", shared)
	}
	if got, want := fmt.Sprintf("%.3f Mbit/s", live.GoodputBitsPerSec()/1e6), "47.407 Mbit/s"; got != want {
		t.Errorf("live flow goodput %s, want %s", got, want)
	}
}

func TestRunFlowsTimeout(t *testing.T) {
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &Flow{
		Src:    net.Switch(node(0, 0, topo.LayerV)).ChanEnd(0),
		Dst:    net.Switch(node(0, 1, topo.LayerV)).ChanEnd(0),
		Tokens: 1 << 30, // cannot finish
	}
	// A horizon that is no multiple of the poll step: the last step must
	// stop at the deadline, not run a step past it.
	const horizon = 100*sim.Microsecond + 300*sim.Nanosecond
	if err := RunFlows(k, []*Flow{f}, horizon); err == nil {
		t.Error("unfinishable flow reported success")
	}
	if k.Now() != horizon {
		t.Errorf("clock at %v after the horizon passed, want the deadline %v", k.Now(), horizon)
	}
}

// TestRunFlowsNamesStuckFlow pins what RunFlows does when the kernel
// runs dry with a flow incomplete: the consumer of one flow's
// destination end goes away just after the start, arrivals fill the
// end's buffer, the source runs out of credit and nothing is left to
// fire. RunFlows used to poll the empty kernel a thousand times; it must
// stop, land the clock on the deadline as the exhausted loop did, and
// name the stuck flow's ends.
func TestRunFlowsNamesStuckFlow(t *testing.T) {
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs := []*Flow{
		{Src: net.Switch(node(1, 0, topo.LayerV)).ChanEnd(0), Dst: net.Switch(node(1, 1, topo.LayerV)).ChanEnd(0), Tokens: 64, PacketTokens: 8},
		{Src: net.Switch(node(0, 0, topo.LayerV)).ChanEnd(0), Dst: net.Switch(node(0, 1, topo.LayerV)).ChanEnd(0), Tokens: 4096},
	}
	// Registered before the flows start, so it fires first; Start has
	// installed the flow's own wake-up by then.
	k.NewTimer(func() { fs[1].Dst.SetWake(func() {}) }).ArmAt(0)
	const horizon = 10*sim.Millisecond + 7*sim.Nanosecond
	err = RunFlows(k, fs, horizon)
	if err == nil {
		t.Fatal("a flow nobody drains finished")
	}
	if !fs[0].Done() || fs[1].Done() {
		t.Fatalf("flows done = %v, %v; want the first complete and the second stuck", fs[0].Done(), fs[1].Done())
	}
	want := fmt.Sprintf("workload: 1/2 flows incomplete after %v: no event pending, the flows can never finish (first: %v -> %v, 0/4096 tokens)",
		horizon, fs[1].Src.ID(), fs[1].Dst.ID())
	if err.Error() != want {
		t.Errorf("error\n got %q\nwant %q", err, want)
	}
	if k.Now() != horizon || k.Pending() != 0 {
		t.Errorf("clock at %v with %d events pending, want the deadline %v and none", k.Now(), k.Pending(), horizon)
	}
}

func TestAggregateGoodput(t *testing.T) {
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint vertical flows on different columns.
	fs := []*Flow{
		{Src: net.Switch(node(0, 0, topo.LayerV)).ChanEnd(0),
			Dst: net.Switch(node(0, 1, topo.LayerV)).ChanEnd(0), Tokens: 1000},
		{Src: net.Switch(node(1, 0, topo.LayerV)).ChanEnd(0),
			Dst: net.Switch(node(1, 1, topo.LayerV)).ChanEnd(0), Tokens: 1000},
	}
	if err := RunFlows(k, fs, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	total := AggregateGoodput(fs) / 1e6
	if math.Abs(total-125) > 5 {
		t.Errorf("aggregate goodput = %.1f Mbit/s, want ~125", total)
	}
}

// memServer emulates shared memory over message passing (Section I's
// "data sharing methods"): it owns a word array and services read
// (op 0) and write (op 1) requests. Each request packet: reply-id,
// op, address-index, [value]; replies carry the read value or an ack.
func memServer(requests int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2
		getr r1, 2
		ldc  r6, @store
		ldc  r5, %d
	serve:
		in   r0, r2      ; reply id
		in   r0, r3      ; op
		in   r0, r4      ; index
		brt  r3, dowrite
		chkct r0, ct_end
		ldw  r7, r6, r4
		bru  reply
	dowrite:
		in   r0, r8
		chkct r0, ct_end
		stw  r8, r6, r4
		ldc  r7, 1       ; ack
	reply:
		setd r1, r2
		out  r1, r7
		outct r1, ct_end
		subi r5, r5, 1
		brt  r5, serve
		tend
	store:
		.space 64
	`, requests)
	return xs1.MustAssemble(src)
}

// memClient writes then reads back a set of remote words, debug-logging
// the number of correct read-backs.
func memClient(server noc.ChanEndID, words int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2
		getr r1, 2
		ldc  r2, %d
		setd r0, r2
		ldc  r5, 0       ; index
		ldc  r9, %d      ; limit
		ldc  r7, 0       ; correct
	writeloop:
		out  r0, r1      ; reply id
		ldc  r3, 1
		out  r0, r3      ; op = write
		out  r0, r5      ; index
		mul  r4, r5, r5
		addi r4, r4, 7
		out  r0, r4      ; value = i*i+7
		outct r0, ct_end
		in   r1, r3      ; ack
		chkct r1, ct_end
		addi r5, r5, 1
		lss  r3, r5, r9
		brt  r3, writeloop
		ldc  r5, 0
	readloop:
		out  r0, r1
		ldc  r3, 0
		out  r0, r3      ; op = read
		out  r0, r5
		outct r0, ct_end
		in   r1, r4
		chkct r1, ct_end
		mul  r8, r5, r5
		addi r8, r8, 7
		eq   r8, r8, r4
		add  r7, r7, r8
		addi r5, r5, 1
		lss  r3, r5, r9
		brt  r3, readloop
		dbg  r7
		tend
	`, uint32(server), words)
	return xs1.MustAssemble(src)
}
