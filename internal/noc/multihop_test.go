package noc

import (
	"testing"
	"testing/quick"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/topo"
)

// TestCornerToCornerMultiSlice drives a packet across a 2x2-slice
// machine from the NW corner to the SE corner: it must traverse
// on-chip, on-board and off-board links and both routing layers.
func TestCornerToCornerMultiSlice(t *testing.T) {
	k, n := testNet(t, 2, 2, OperatingConfig())
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(3, 7, topo.LayerV)).ChanEnd(5)
	src.SetDest(dst.ID())
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x42}
	k.NewTimer(func() {
		for _, b := range payload {
			src.TryOut(DataToken(b))
		}
		src.TryOut(CtrlToken(CtEnd))
	}).ArmAfter(0)
	got := drain(k, dst, 100*sim.Microsecond)
	if len(got) != len(payload)+1 {
		t.Fatalf("received %d tokens: %v", len(got), got)
	}
	for i, b := range payload {
		if got[i].Ctrl || got[i].Val != b {
			t.Fatalf("token %d = %v, want %02x", i, got[i], b)
		}
	}
	st := n.StatsByClass()
	for _, class := range []energy.LinkClass{
		energy.LinkOnChip, energy.LinkBoardVertical,
		energy.LinkBoardHorizontal, energy.LinkOffBoard,
	} {
		if st[class].Tokens == 0 {
			t.Errorf("corner-to-corner route used no %v links", class)
		}
	}
}

// TestEveryPairDelivers exhaustively sends one small packet between
// every ordered pair of cores on a slice, sequentially, checking
// delivery and that routes close cleanly behind each packet.
func TestEveryPairDelivers(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	nodes := n.Sys.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			src := n.Switch(a).ChanEnd(0)
			dst := n.Switch(b).ChanEnd(1)
			src.SetDest(dst.ID())
			sent := byte(uint32(a) ^ uint32(b))
			k.NewTimer(func() {
				if !src.TryOut(DataToken(sent)) {
					t.Errorf("%v->%v: output refused", a, b)
				}
				src.TryOut(CtrlToken(CtEnd))
			}).ArmAfter(0)
			k.RunFor(20 * sim.Microsecond)
			tok, ok := dst.TryIn()
			if !ok || tok.Ctrl || tok.Val != sent {
				t.Fatalf("%v->%v: got %v ok=%v want %02x", a, b, tok, ok, sent)
			}
			end, ok := dst.TryIn()
			if !ok || !end.IsEnd() {
				t.Fatalf("%v->%v: missing END (got %v)", a, b, end)
			}
		}
	}
}

// Property: any random payload crosses the network intact and in
// order.
func TestPayloadIntegrityProperty(t *testing.T) {
	f := func(payload []byte, dstIdx uint8) bool {
		if len(payload) == 0 || len(payload) > 64 {
			return true // vacuous; bound runtime
		}
		k, n := testNet(t, 1, 1, OperatingConfig())
		src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
		dst := n.Switch(topo.MakeNodeID(1, 2, topo.LayerH)).ChanEnd(dstIdx % 32)
		src.SetDest(dst.ID())
		i := 0
		closed := false
		var pump func()
		pump = func() {
			for i < len(payload) {
				if !src.TryOut(DataToken(payload[i])) {
					return
				}
				i++
			}
			if !closed && src.TryOut(CtrlToken(CtEnd)) {
				closed = true
			}
		}
		src.SetWake(pump)
		k.NewTimer(pump).ArmAfter(0)
		got := drain(k, dst, sim.Millisecond)
		if len(got) != len(payload)+1 {
			return false
		}
		for j, b := range payload {
			if got[j].Ctrl || got[j].Val != b {
				return false
			}
		}
		return got[len(got)-1].IsEnd()
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestCreditInvariantUnderChurn hammers one destination from four
// sources with tiny packets; buffer overflow would panic via the
// credit-protocol check in inPort.receive.
func TestCreditInvariantUnderChurn(t *testing.T) {
	k, n := testNet(t, 1, 1, OperatingConfig())
	dst := n.Switch(topo.MakeNodeID(1, 3, topo.LayerH)).ChanEnd(0)
	drainAll(k, dst)
	for i := 0; i < 4; i++ {
		src := n.Switch(topo.MakeNodeID(0, i, topo.LayerV)).ChanEnd(0)
		src.SetDest(dst.ID())
		sent, inPkt := 0, 0
		var pump func()
		pump = func() {
			for sent < 300 {
				if inPkt == 3 {
					if !src.TryOut(CtrlToken(CtEnd)) {
						return
					}
					inPkt = 0
					continue
				}
				if !src.TryOut(DataToken(byte(sent))) {
					return
				}
				sent++
				inPkt++
			}
			if inPkt > 0 {
				src.TryOut(CtrlToken(CtEnd))
			}
		}
		src.SetWake(pump)
		k.NewTimer(pump).ArmAfter(0)
	}
	k.RunFor(5 * sim.Millisecond)
	if dst.TokensIn < 4*300 {
		t.Errorf("delivered %d tokens, want >= 1200", dst.TokensIn)
	}
}

// TestMaxRateInternalLinkThroughput checks the fastest link mode
// approaches the paper's "500 Mbit/s" internal figure.
func TestMaxRateInternalLinkThroughput(t *testing.T) {
	cfg := MaxRateConfig()
	k, n := testNet(t, 1, 1, cfg)
	src := n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0)
	dst := n.Switch(topo.MakeNodeID(0, 0, topo.LayerH)).ChanEnd(0)
	src.SetDest(dst.ID())
	drainAll(k, dst)
	// Keep the link saturated for the whole measurement window.
	sent := 0
	var pump func()
	pump = func() {
		for sent < 200000 {
			if !src.TryOut(DataToken(byte(sent))) {
				return
			}
			sent++
		}
	}
	src.SetWake(pump)
	k.NewTimer(pump).ArmAfter(0)
	k.RunFor(sim.Millisecond)
	bits := float64(dst.TokensIn * 8)
	rate := bits / sim.Millisecond.Seconds() / 1e6
	// Ts=2, Tt=1 at 500 MHz = 571 Mbit/s wire rate.
	if rate < 520 || rate > 580 {
		t.Errorf("max-rate internal link = %.0f Mbit/s, want ~571 (paper: '500 Mbit/s')", rate)
	}
}
