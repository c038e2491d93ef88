package bridge

import (
	"bytes"
	"math"
	"testing"

	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
)

func southNode() topo.NodeID { return topo.MakeNodeID(0, 3, topo.LayerV) }

func testNet(t *testing.T) (*sim.Kernel, *noc.Network) {
	t.Helper()
	k := sim.NewKernel()
	n, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

func TestBridgePlacementRules(t *testing.T) {
	k, n := testNet(t)
	if _, err := New(k, n, topo.MakeNodeID(0, 3, topo.LayerH)); err == nil {
		t.Error("horizontal-layer attach accepted")
	}
	if _, err := New(k, n, topo.MakeNodeID(0, 0, topo.LayerV)); err == nil {
		t.Error("north-row attach accepted")
	}
	b, err := New(k, n, southNode())
	if err != nil {
		t.Fatalf("valid attach rejected: %v", err)
	}
	if b.Node() != southNode() {
		t.Error("node wrong")
	}
	// A second bridge on the same node conflicts on channel ends.
	if _, err := New(k, n, southNode()); err == nil {
		t.Error("double attach accepted")
	}
}

func TestBridgeSendToCore(t *testing.T) {
	k, n := testNet(t)
	b, err := New(k, n, southNode())
	if err != nil {
		t.Fatal(err)
	}
	dst := n.Switch(topo.MakeNodeID(1, 0, topo.LayerH)).ChanEnd(2)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b.Send(dst.ID(), payload)
	var got []byte
	sawEnd := false
	dst.SetWake(func() {
		for {
			tok, ok := dst.TryIn()
			if !ok {
				return
			}
			if tok.IsEnd() {
				sawEnd = true
			} else if !tok.Ctrl {
				got = append(got, tok.Val)
			}
		}
	})
	k.RunFor(10 * sim.Millisecond)
	if !bytes.Equal(got, payload) {
		t.Fatalf("received % x, want % x", got, payload)
	}
	if !sawEnd {
		t.Error("END not delivered")
	}
	if b.BytesOut != uint64(len(payload)) {
		t.Errorf("BytesOut = %d", b.BytesOut)
	}
	if b.Pending() != 0 {
		t.Errorf("Pending = %d after drain", b.Pending())
	}
}

func TestBridgeReceiveFromCore(t *testing.T) {
	k, n := testNet(t)
	b, err := New(k, n, southNode())
	if err != nil {
		t.Fatal(err)
	}
	src := n.Switch(topo.MakeNodeID(1, 2, topo.LayerV)).ChanEnd(0)
	src.SetDest(b.Addr())
	k.NewTimer(func() {
		for _, v := range []byte{0xca, 0xfe} {
			src.TryOut(noc.DataToken(v))
		}
		src.TryOut(noc.CtrlToken(noc.CtEnd))
		for _, v := range []byte{0xd0, 0x0d} {
			src.TryOut(noc.DataToken(v))
		}
		src.TryOut(noc.CtrlToken(noc.CtEnd))
	}).ArmAfter(0)
	k.RunFor(10 * sim.Millisecond)
	frames := b.frames
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	if !bytes.Equal(frames[0], []byte{0xca, 0xfe}) || !bytes.Equal(frames[1], []byte{0xd0, 0x0d}) {
		t.Fatalf("frame contents wrong: % x", frames)
	}
	if b.BytesIn != 4 {
		t.Errorf("BytesIn = %d, want 4", b.BytesIn)
	}
}

func TestBridgeRateCap(t *testing.T) {
	// 10 KB through the bridge at 80 Mbit/s must take ~1 ms of
	// simulated time.
	k, n := testNet(t)
	b, err := New(k, n, southNode())
	if err != nil {
		t.Fatal(err)
	}
	dst := n.Switch(topo.MakeNodeID(0, 3, topo.LayerH)).ChanEnd(2)
	drained := func() {
		for {
			if _, ok := dst.TryIn(); !ok {
				return
			}
		}
	}
	dst.SetWake(drained)
	payload := make([]byte, 10000)
	start := k.Now()
	b.Send(dst.ID(), payload)
	for i := 0; i < 10000 && b.Pending() > 0; i++ {
		k.RunFor(50 * sim.Microsecond)
	}
	elapsed := (k.Now() - start).Seconds()
	rate := 10000 * 8 / elapsed
	if math.Abs(rate-RateBitsPerSec)/RateBitsPerSec > 0.08 {
		t.Errorf("bridge rate = %.3g bit/s, want ~%.3g", rate, RateBitsPerSec)
	}
}

func TestBridgeSendWords(t *testing.T) {
	k, n := testNet(t)
	b, err := New(k, n, southNode())
	if err != nil {
		t.Fatal(err)
	}
	dst := n.Switch(topo.MakeNodeID(0, 2, topo.LayerV)).ChanEnd(3)
	b.SendWords(dst.ID(), []uint32{0x01020304, 0xaabbccdd})
	k.RunFor(10 * sim.Millisecond)
	w1, ok1 := dst.InWord()
	w2, ok2 := dst.InWord()
	if !ok1 || !ok2 || w1 != 0x01020304 || w2 != 0xaabbccdd {
		t.Fatalf("words = %#x(%v) %#x(%v)", w1, ok1, w2, ok2)
	}
}
