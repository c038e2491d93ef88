package bridge

import (
	"bytes"
	"testing"

	"swallow/internal/noc"
	"swallow/internal/sim"
)

// runEcho sends a payload to a drained local channel end and returns
// the elapsed transfer time plus the byte counters.
func runEcho(t *testing.T, k *sim.Kernel, n *noc.Network, b *Bridge) (sim.Time, uint64) {
	t.Helper()
	dst := n.Switch(southNode()).ChanEnd(1)
	var got []byte
	dst.SetWake(func() {
		for {
			tok, ok := dst.TryIn()
			if !ok {
				return
			}
			if !tok.Ctrl {
				got = append(got, tok.Val)
			}
		}
	})
	payload := bytes.Repeat([]byte{0xA5}, 300)
	start := k.Now()
	b.Send(dst.ID(), payload)
	for i := 0; i < 100 && b.Pending() > 0; i++ {
		k.RunFor(100 * sim.Microsecond)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(payload))
	}
	return k.Now() - start, b.BytesOut
}

// TestBridgeSnapshotDifferential restores the stack under a bridge to
// snapshots taken at construction and checks the bridge then behaves
// exactly like a fresh one: same transfer timing, counters restarted
// from zero. One snapshot holds the attached bridge. The other predates
// it, so its restore releases the bridge's channel ends and Attach, as
// a machine does after a rewind, must revive it.
func TestBridgeSnapshotDifferential(t *testing.T) {
	k, n := testNet(t)
	ks0, ns0 := k.Snapshot(), n.Snapshot()
	b, err := New(k, n, southNode())
	if err != nil {
		t.Fatal(err)
	}
	ks, ns, bs := k.Snapshot(), n.Snapshot(), b.Snapshot()
	elapsed, out := runEcho(t, k, n, b)

	same := func(what string) {
		t.Helper()
		if b.BytesIn != 0 || b.BytesOut != 0 || b.Pending() != 0 {
			t.Fatalf("%s: the bridge retains state", what)
		}
		if e, o := runEcho(t, k, n, b); e != elapsed || o != out {
			t.Fatalf("%s: transfer took %v and sent %d bytes, fresh took %v and sent %d", what, e, o, elapsed, out)
		}
	}
	k.Restore(ks)
	n.Restore(ns)
	b.Restore(bs)
	same("restored with the bridge")

	k.Restore(ks0)
	n.Restore(ns0)
	if err := b.Attach(); err != nil {
		t.Fatalf("attach after restoring the network it predates: %v", err)
	}
	same("re-attached")

	// The re-claimed channel ends must conflict like fresh ones.
	if err := b.Attach(); err == nil {
		t.Fatal("a second Attach re-claimed allocated channel ends")
	}
}

// TestBridgeResetConflictLeavesNoClaim checks the failure path leaks
// nothing: when the rx end is taken by someone else, neither New nor a
// re-Attach after the network is rewound may leave the tx end
// half-claimed, and each succeeds once the conflict clears.
func TestBridgeResetConflictLeavesNoClaim(t *testing.T) {
	k, n := testNet(t)
	ks, ns := k.Snapshot(), n.Snapshot()
	sw := n.Switch(southNode())
	rx := sw.ChanEnd(uint8(sw.ChanEndCount() - 2))
	tx := sw.ChanEnd(uint8(sw.ChanEndCount() - 1))
	var b *Bridge
	for _, attach := range []struct {
		name   string
		rewind func()
		fn     func() error
	}{
		{"New", func() {}, func() (err error) {
			b, err = New(k, n, southNode())
			return err
		}},
		// Restoring the network the bridge postdates releases its ends.
		{"Attach", func() { k.Restore(ks); n.Restore(ns) }, func() error { return b.Attach() }},
	} {
		attach.rewind()
		if !rx.Claim() {
			t.Fatalf("%s: rx end not free", attach.name)
		}
		if err := attach.fn(); err == nil {
			t.Fatalf("%s succeeded with rx end taken", attach.name)
		}
		if !tx.Claim() {
			t.Fatalf("failed %s leaked the tx claim", attach.name)
		}
		tx.Free()
		rx.Free()
		if err := attach.fn(); err != nil {
			t.Fatalf("%s after the conflict cleared: %v", attach.name, err)
		}
	}
}
