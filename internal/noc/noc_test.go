package noc

import (
	"math"
	"testing"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/topo"
)

// testNet builds a network over an SxS-slice system.
func testNet(t *testing.T, sx, sy int, cfg Config) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	n, err := NewNetwork(k, topo.MustSystem(sx, sy), cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return k, n
}

// drain runs the kernel and collects everything arriving at ce.
func drain(k *sim.Kernel, ce *ChanEnd, horizon sim.Time) []Token {
	var got []Token
	pull := func() {
		for {
			tok, ok := ce.TryIn()
			if !ok {
				return
			}
			got = append(got, tok)
		}
	}
	ce.SetWake(pull)
	k.NewTimer(pull).ArmAfter(0)
	k.RunUntil(horizon)
	pull()
	return got
}

func TestTokenRendering(t *testing.T) {
	if DataToken(0xab).String() != "Dab" {
		t.Errorf("data token = %q", DataToken(0xab).String())
	}
	for _, c := range []struct {
		code byte
		s    string
	}{{CtEnd, "END"}, {CtPause, "PAUSE"}, {CtAck, "ACK"}, {CtNack, "NACK"}, {0x77, "C77"}} {
		if got := CtrlToken(c.code).String(); got != c.s {
			t.Errorf("ctrl %#x = %q, want %q", c.code, got, c.s)
		}
	}
}

func TestTokenPredicates(t *testing.T) {
	if !CtrlToken(CtEnd).IsEnd() || !CtrlToken(CtPause).IsPause() {
		t.Error("control predicates wrong")
	}
	if DataToken(CtEnd).IsEnd() {
		t.Error("data token with END value treated as control")
	}
	if !CtrlToken(CtEnd).ClosesRoute() || !CtrlToken(CtPause).ClosesRoute() {
		t.Error("END/PAUSE must close routes")
	}
	if CtrlToken(CtAck).ClosesRoute() {
		t.Error("ACK must not close routes")
	}
}

func TestChanEndIDRoundTrip(t *testing.T) {
	id := MakeChanEndID(0x1234, 7)
	if id.Node() != 0x1234 || id.Index() != 7 {
		t.Fatalf("round trip failed: %v", id)
	}
	h := id.HeaderBytes()
	if ChanEndIDFromHeader(h) != id {
		t.Fatalf("header round trip failed: % x -> %v", h, ChanEndIDFromHeader(h))
	}
}

func TestLinkTimingRates(t *testing.T) {
	cases := []struct {
		timing LinkTiming
		mbit   float64
		tol    float64
	}{
		{TimingInternalOperating, 250, 0.5},  // Table I on-chip
		{TimingExternalOperating, 62.5, 0.2}, // Table I on-board
		{TimingInternalMax, 571, 5},          // "500 Mbit/s" fastest mode
		{TimingExternalMax, 125, 0.5},
	}
	for _, c := range cases {
		got := c.timing.BitRate() / 1e6
		if math.Abs(got-c.mbit) > c.tol {
			t.Errorf("timing %+v rate = %.1f Mbit/s, want %.1f", c.timing, got, c.mbit)
		}
	}
	// The fastest mode is Ts=2, Tt=1: 7 cycles per token.
	if TimingInternalMax.TokenCycles() != 7 {
		t.Errorf("fastest token cycles = %d, want 7", TimingInternalMax.TokenCycles())
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	bad := OperatingConfig()
	bad.InternalLinks = 9
	if _, err := NewNetwork(k, topo.MustSystem(1, 1), bad); err == nil {
		t.Error("internal links 9 accepted")
	}
}

func TestCoreLocalTransfer(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	sw := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	src := sw.ChanEnd(0)
	dst := sw.ChanEnd(1)
	src.SetDest(dst.ID())
	k.NewTimer(func() {
		for _, b := range []byte{1, 2, 3} {
			if !src.TryOut(DataToken(b)) {
				t.Error("TryOut refused with empty buffers")
			}
		}
		src.TryOut(CtrlToken(CtEnd))
	}).ArmAfter(0)
	got := drain(k, dst, sim.Microsecond)
	if len(got) != 4 {
		t.Fatalf("received %d tokens, want 3 data + END", len(got))
	}
	for i, b := range []byte{1, 2, 3} {
		if got[i].Ctrl || got[i].Val != b {
			t.Errorf("token %d = %v, want D%02x", i, got[i], b)
		}
	}
	if !got[3].IsEnd() {
		t.Errorf("last token = %v, want END", got[3])
	}
}

func TestInPackageTransfer(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	v := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	h := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH))
	src := v.ChanEnd(0)
	dst := h.ChanEnd(3)
	src.SetDest(dst.ID())
	k.NewTimer(func() {
		src.OutWord(0xdeadbeef)
		src.TryOut(CtrlToken(CtEnd))
	}).ArmAfter(0)
	ce := dst
	k.RunUntil(10 * sim.Microsecond)
	w, ok := ce.InWord()
	if !ok {
		t.Fatalf("no word arrived; buffered=%d", ce.InAvailable())
	}
	if w != 0xdeadbeef {
		t.Fatalf("word = %#x, want 0xdeadbeef", w)
	}
	// Header must have been stripped: next buffered token is END.
	tok, ok := ce.TryIn()
	if !ok || !tok.IsEnd() {
		t.Fatalf("after word got %v ok=%v, want END", tok, ok)
	}
}

func TestCrossBoardTransferAndClasses(t *testing.T) {
	k, n := testNet(t, 2, 1, OperatingConfig())
	// From slice (0,0) horizontal core to slice (1,0): crosses an
	// off-board link.
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(3, 0, topo.LayerH)).ChanEnd(0)
	src.SetDest(dst.ID())
	k.NewTimer(func() {
		src.OutWord(42)
		src.TryOut(CtrlToken(CtEnd))
	}).ArmAfter(0)
	k.RunUntil(50 * sim.Microsecond)
	if w, ok := dst.InWord(); !ok || w != 42 {
		t.Fatalf("cross-board word = %v ok=%v", w, ok)
	}
	stats := n.StatsByClass()
	if stats[energy.LinkOffBoard].Tokens == 0 {
		t.Error("off-board link carried no tokens")
	}
	if stats[energy.LinkBoardHorizontal].Tokens == 0 {
		t.Error("on-board horizontal links carried no tokens")
	}
}

func TestHeaderOverheadOnWire(t *testing.T) {
	// Every packet costs 3 header tokens plus the closing END.
	k, n := testNet(t, 1, 1, OperatingConfig())
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(0)
	src.SetDest(dst.ID())
	const payload = 5
	k.NewTimer(func() {
		for i := 0; i < payload; i++ {
			src.TryOut(DataToken(byte(i)))
		}
		src.TryOut(CtrlToken(CtEnd))
	}).ArmAfter(0)
	k.RunUntil(50 * sim.Microsecond)
	st := n.StatsByClass()[energy.LinkOnChip]
	want := uint64(payload + HeaderTokens + 1)
	if st.Tokens != want {
		t.Errorf("on-chip tokens = %d, want %d (payload+header+END)", st.Tokens, want)
	}
	if st.CtrlTokens != 1 {
		t.Errorf("ctrl tokens = %d, want 1", st.CtrlTokens)
	}
}

func TestPauseClosesRouteSilently(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(0)
	src.SetDest(dst.ID())
	k.NewTimer(func() {
		src.TryOut(DataToken(0x11))
		src.TryOut(CtrlToken(CtPause))
		// Second packet reopens the route with a fresh header.
		src.TryOut(DataToken(0x22))
		src.TryOut(CtrlToken(CtEnd))
	}).ArmAfter(0)
	got := drain(k, dst, 50*sim.Microsecond)
	if len(got) != 3 {
		t.Fatalf("received %d tokens %v, want D11 D22 END (no PAUSE)", len(got), got)
	}
	if got[0].Val != 0x11 || got[1].Val != 0x22 || !got[2].IsEnd() {
		t.Errorf("got %v", got)
	}
}

func TestBackpressureWithoutLoss(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(0)
	src.SetDest(dst.ID())
	const total = 200
	sent := 0
	var pump func()
	pump = func() {
		for sent < total {
			if !src.TryOut(DataToken(byte(sent))) {
				return // wake will resume
			}
			sent++
		}
		src.TryOut(CtrlToken(CtEnd))
	}
	src.SetWake(pump)
	k.NewTimer(pump).ArmAfter(0)
	// Let the network clog: the receiver consumes nothing for a while.
	k.RunUntil(20 * sim.Microsecond)
	if sent >= total {
		t.Fatalf("sender was never backpressured (sent %d)", sent)
	}
	// Now drain; every token must arrive exactly once, in order.
	var got []Token
	pull := func() {
		for {
			tok, ok := dst.TryIn()
			if !ok {
				return
			}
			got = append(got, tok)
		}
	}
	dst.SetWake(pull)
	k.NewTimer(pull).ArmAfter(0)
	k.RunUntil(sim.Millisecond)
	pull()
	data := 0
	for _, tok := range got {
		if tok.Ctrl {
			continue
		}
		if tok.Val != byte(data) {
			t.Fatalf("token %d = %v, out of order", data, tok)
		}
		data++
	}
	if data != total {
		t.Errorf("received %d data tokens, want %d", data, total)
	}
}

func TestWormholeHoldsLink(t *testing.T) {
	// A stream that never sends END holds its claimed links: a second
	// stream wanting the same single external link must wait, and
	// proceeds once the first closes.
	cfg := OperatingConfig()
	k, n := testNet(t, 1, 1, cfg)
	// Both sources sit on V(0,0)'s switch; both target V(0,1): the
	// single South link is the contended resource.
	sw := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	dstSw := n.Switch(topo.MakeNodeID(0, 1, topo.LayerV))
	a, b := sw.ChanEnd(0), sw.ChanEnd(1)
	da, db := dstSw.ChanEnd(0), dstSw.ChanEnd(1)
	a.SetDest(da.ID())
	b.SetDest(db.ID())
	k.NewTimer(func() {
		a.TryOut(DataToken(0xaa)) // opens route, holds it (no END)
		b.TryOut(DataToken(0xbb)) // must queue behind a's circuit
	}).ArmAfter(0)
	k.RunUntil(100 * sim.Microsecond)
	if da.InAvailable() == 0 {
		t.Fatal("first stream's token did not arrive")
	}
	if db.InAvailable() != 0 {
		t.Fatal("second stream overtook a held wormhole route")
	}
	// Closing the first stream releases the link.
	k.NewTimer(func() { a.TryOut(CtrlToken(CtEnd)) }).ArmAfter(0)
	k.RunUntil(200 * sim.Microsecond)
	if db.InAvailable() == 0 {
		t.Fatal("second stream still blocked after route closed")
	}
}

func TestInternalLinkAggregation(t *testing.T) {
	// Four internal links allow four concurrent circuits between the
	// cores of a package; a fifth queues.
	cfg := OperatingConfig()
	k, n := testNet(t, 1, 1, cfg)
	v := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	h := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH))
	for i := 0; i < 5; i++ {
		src := v.ChanEnd(uint8(i))
		src.SetDest(h.ChanEnd(uint8(i)).ID())
		src.TryOut(DataToken(byte(0xa0 + i))) // no END: circuits held
	}
	k.RunUntil(100 * sim.Microsecond)
	delivered := 0
	for i := 0; i < 5; i++ {
		if h.ChanEnd(uint8(i)).InAvailable() > 0 {
			delivered++
		}
	}
	if delivered != 4 {
		t.Errorf("delivered %d concurrent streams, want exactly 4 (link count)", delivered)
	}
}

func TestPacketInterleavingAtSharedDestination(t *testing.T) {
	// Two senders to one channel end interleave at packet granularity:
	// each packet's bytes stay contiguous.
	k, n := testNet(t, 1, 1, OperatingConfig())
	h := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH))
	v := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	dst := h.ChanEnd(7)
	a, b := v.ChanEnd(0), v.ChanEnd(1)
	a.SetDest(dst.ID())
	b.SetDest(dst.ID())
	send := func(ce *ChanEnd, base byte) func() {
		pkt, inPkt := 0, 0
		var pump func()
		pump = func() {
			for pkt < 3 {
				if inPkt < 4 {
					if !ce.TryOut(DataToken(base + byte(pkt))) {
						return
					}
					inPkt++
					continue
				}
				if !ce.TryOut(CtrlToken(CtEnd)) {
					return
				}
				inPkt = 0
				pkt++
			}
		}
		ce.SetWake(pump)
		return pump
	}
	k.NewTimer(send(a, 0x10)).ArmAfter(0)
	k.NewTimer(send(b, 0x50)).ArmAfter(0)
	got := drain(k, dst, sim.Millisecond)
	// Split on END and check each packet is homogeneous.
	var cur []byte
	packets := 0
	for _, tok := range got {
		if tok.IsEnd() {
			if len(cur) != 4 {
				t.Fatalf("packet of %d bytes, want 4: %v", len(cur), cur)
			}
			for _, v := range cur[1:] {
				if v != cur[0] {
					t.Fatalf("interleaved bytes within one packet: %v", cur)
				}
			}
			packets++
			cur = nil
			continue
		}
		cur = append(cur, tok.Val)
	}
	if packets != 6 {
		t.Errorf("received %d packets, want 6", packets)
	}
}

func TestStrayControlTokenDropped(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(0)
	src.SetDest(dst.ID())
	k.NewTimer(func() {
		// END with no open route: the header opens a packet whose only
		// content is the END, which is legal; then a second stray END is
		// injected directly into the source port between packets.
		src.TryOut(DataToken(1))
		src.TryOut(CtrlToken(CtEnd))
		src.src.push(CtrlToken(CtPause))
		k.NewTimer(src.src.process).ArmAfter(0)
	}).ArmAfter(0)
	k.RunUntil(100 * sim.Microsecond)
	if src.src.DroppedTokens != 1 {
		t.Errorf("dropped tokens = %d, want 1", src.src.DroppedTokens)
	}
}

func TestTableIEnergyPerBitMeasured(t *testing.T) {
	// Stream data across each link class and compare the measured
	// energy-per-bit with Table I.
	k, n := testNet(t, 2, 2, OperatingConfig())
	routes := []struct {
		src, dst topo.NodeID
		class    energy.LinkClass
		pj       float64
	}{
		{topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 0, topo.LayerH), energy.LinkOnChip, 5.6},
		{topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 1, topo.LayerV), energy.LinkBoardVertical, 212.8},
		{topo.MakeNodeID(0, 0, topo.LayerH), topo.MakeNodeID(1, 0, topo.LayerH), energy.LinkBoardHorizontal, 201.6},
		{topo.MakeNodeID(1, 0, topo.LayerH), topo.MakeNodeID(2, 0, topo.LayerH), energy.LinkOffBoard, 10880},
	}
	for _, r := range routes {
		src := n.Switch(r.src).ChanEnd(0)
		dst := n.Switch(r.dst).ChanEnd(0)
		src.SetDest(dst.ID())
		sent := 0
		var pump func()
		pump = func() {
			for sent < 64 {
				if !src.TryOut(DataToken(byte(sent))) {
					return
				}
				sent++
			}
			src.TryOut(CtrlToken(CtEnd))
		}
		src.SetWake(pump)
		drainAll(k, dst)
		k.NewTimer(pump).ArmAfter(0)
		k.RunUntil(k.Now() + sim.Millisecond)
		st := n.StatsByClass()[r.class]
		if st.Bits == 0 {
			t.Fatalf("%v: no traffic", r.class)
		}
		got := st.EnergyPerBit() * 1e12
		if math.Abs(got-r.pj) > r.pj*0.01 {
			t.Errorf("%v energy/bit = %.1f pJ, want %.1f", r.class, got, r.pj)
		}
	}
}

// drainAll keeps a channel end permanently drained.
func drainAll(k *sim.Kernel, ce *ChanEnd) {
	var pull func()
	pull = func() {
		for {
			if _, ok := ce.TryIn(); !ok {
				return
			}
		}
	}
	ce.SetWake(pull)
}

func TestGoodputApproaches87Percent(t *testing.T) {
	// Section V-B: packet overhead reduces throughput to ~87% of link
	// speed, dependent on packet size. With 3 header + 1 END tokens per
	// packet, 28-byte payloads give 28/32 = 87.5%.
	k, n := testNet(t, 1, 1, OperatingConfig())
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(0, 1, topo.LayerV)).ChanEnd(0)
	src.SetDest(dst.ID())
	drainAll(k, dst)
	const payload = 28
	const packets = 200
	sentPkts, inPkt := 0, 0
	var pump func()
	pump = func() {
		for sentPkts < packets {
			if inPkt < payload {
				if !src.TryOut(DataToken(byte(inPkt))) {
					return
				}
				inPkt++
				continue
			}
			if !src.TryOut(CtrlToken(CtEnd)) {
				return
			}
			inPkt = 0
			sentPkts++
		}
	}
	src.SetWake(pump)
	k.NewTimer(pump).ArmAfter(0)
	start := k.Now()
	k.RunUntil(10 * sim.Millisecond)
	if sentPkts < packets {
		t.Fatalf("only %d packets sent", sentPkts)
	}
	elapsed := (k.Now() - start).Seconds()
	_ = elapsed
	// Goodput measured over the vertical link's busy accounting:
	st := n.StatsByClass()[energy.LinkBoardVertical]
	goodFrac := float64(st.DataTokens-uint64(HeaderTokens*packets)) / float64(st.Tokens)
	if math.Abs(goodFrac-0.875) > 0.01 {
		t.Errorf("goodput fraction = %.3f, want ~0.875", goodFrac)
	}
}

func TestSaturatedLinkPowerMatchesTableI(t *testing.T) {
	// A link kept busy continuously dissipates its Table I max power.
	k, n := testNet(t, 1, 1, OperatingConfig())
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(0, 1, topo.LayerV)).ChanEnd(0)
	src.SetDest(dst.ID())
	drainAll(k, dst)
	sent := 0
	var pump func()
	pump = func() {
		for {
			if !src.TryOut(DataToken(byte(sent))) {
				return
			}
			sent++
		}
	}
	src.SetWake(pump)
	k.NewTimer(pump).ArmAfter(0)
	dur := 2 * sim.Millisecond
	k.RunUntil(dur)
	st := n.StatsByClass()[energy.LinkBoardVertical]
	gotW := st.MeanPowerW(dur) * 1e3
	if math.Abs(gotW-13.3) > 0.7 {
		t.Errorf("saturated vertical link power = %.2f mW, want ~13.3", gotW)
	}
	if u := st.Utilization(dur); u < 0.95 {
		t.Errorf("link utilization = %.2f, want ~1 at saturation", u)
	}
}

func TestChanEndAllocation(t *testing.T) {
	_, n := testNet(t, 1, 1, OperatingConfig())
	sw := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	seen := map[uint8]bool{}
	for i := 0; i < ChanEndsPerCore; i++ {
		ce := sw.AllocChanEnd()
		if ce == nil {
			t.Fatalf("allocation %d failed", i)
		}
		if seen[ce.ID().Index()] {
			t.Fatalf("channel end %d allocated twice", ce.ID().Index())
		}
		seen[ce.ID().Index()] = true
	}
	if sw.AllocChanEnd() != nil {
		t.Error("allocation beyond resource count succeeded")
	}
	sw.ChanEnd(3).Free()
	if ce := sw.AllocChanEnd(); ce == nil || ce.ID().Index() != 3 {
		t.Error("freed channel end not reallocated")
	}
}

func TestOutWithoutDestPanics(t *testing.T) {
	_, n := testNet(t, 1, 1, OperatingConfig())
	defer func() {
		if recover() == nil {
			t.Error("output with no destination did not panic")
		}
	}()
	n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0).TryOut(DataToken(1))
}

func TestWordHelpers(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	sw := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	src, dst := sw.ChanEnd(0), sw.ChanEnd(1)
	src.SetDest(dst.ID())
	k.NewTimer(func() {
		if !src.OutWord(0x01020304) {
			t.Error("OutWord refused")
		}
	}).ArmAfter(0)
	k.RunUntil(sim.Microsecond)
	if _, ok := dst.InWord(); !ok {
		// Only 4 tokens buffered; should be there.
		t.Fatalf("InWord failed with %d buffered", dst.InAvailable())
	}
}

func TestInWordPartialDoesNotConsume(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	sw := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV))
	src, dst := sw.ChanEnd(0), sw.ChanEnd(1)
	src.SetDest(dst.ID())
	k.NewTimer(func() {
		src.TryOut(DataToken(9))
		src.TryOut(DataToken(8))
	}).ArmAfter(0)
	k.RunUntil(sim.Microsecond)
	if _, ok := dst.InWord(); ok {
		t.Fatal("InWord succeeded with 2 tokens")
	}
	if dst.InAvailable() != 2 {
		t.Errorf("partial InWord consumed tokens: %d left", dst.InAvailable())
	}
}

func TestStatsAccumulate(t *testing.T) {
	var s LinkStats
	s.Add(LinkStats{Tokens: 2, DataTokens: 1, CtrlTokens: 1, Bits: 16, EnergyJ: 1e-9, Busy: 100})
	s.Add(LinkStats{Tokens: 3, Bits: 24, EnergyJ: 2e-9, Busy: 50})
	if s.Tokens != 5 || s.Bits != 40 || s.Busy != 150 {
		t.Errorf("stats add wrong: %+v", s)
	}
	if math.Abs(s.EnergyPerBit()-3e-9/40) > 1e-18 {
		t.Errorf("EnergyPerBit = %v", s.EnergyPerBit())
	}
	var empty LinkStats
	if empty.EnergyPerBit() != 0 || empty.MeanPowerW(0) != 0 || empty.Utilization(0) != 0 {
		t.Error("zero stats should report zeros")
	}
}
