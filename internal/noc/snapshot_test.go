package noc

import (
	"reflect"
	"testing"

	"swallow/internal/sim"
	"swallow/internal/topo"
)

// slidToEnd reports whether q's live window is non-empty, starts past
// the front of its backing and reaches the backing's end: the state
// from which the next push slides the window back.
func slidToEnd(q *tokenFIFO) bool {
	return len(q.live) > 0 && cap(q.live) == len(q.live) && &q.live[0] != &q.buf[0]
}

// slowStream is a backpressured host-driven stream: the sender pushes
// as fast as the network accepts, the receiver takes one token per
// tick, so every buffer on the path fills and its window keeps sliding.
type slowStream struct {
	k        *sim.Kernel
	n        *Network
	src, dst *ChanEnd
	total    int

	sent int
	got  []Token
	tick *sim.Timer
}

func newSlowStream(t *testing.T, total int) *slowStream {
	k, n := testNet(t, 1, 1, OperatingConfig())
	s := &slowStream{
		k: k, n: n, total: total,
		src: n.Switch(topo.MakeNodeID(0, 0, topo.LayerV)).ChanEnd(0),
		dst: n.Switch(topo.MakeNodeID(0, 2, topo.LayerV)).ChanEnd(0),
	}
	s.tick = k.NewTimer(func() {
		if tok, ok := s.dst.TryIn(); ok {
			s.got = append(s.got, tok)
		}
		s.tick.ArmAfter(700 * sim.Nanosecond)
	})
	return s
}

func (s *slowStream) pump() {
	for s.sent < s.total {
		if !s.src.TryOut(DataToken(byte(s.sent))) {
			return
		}
		s.sent++
	}
	if s.sent == s.total && s.src.TryOut(CtrlToken(CtEnd)) {
		s.sent++ // sentinel: route closed
	}
}

// start arms the stream on a just-built or just-rewound network.
func (s *slowStream) start() {
	s.sent, s.got = 0, s.got[:0]
	s.src.SetDest(s.dst.ID())
	s.src.SetWake(s.pump)
	s.pump()
	s.tick.ArmAfter(0)
}

// outcome is everything Restore ≡ re-run compares at the end of a run.
type streamOutcome struct {
	got              []Token
	now              sim.Time
	seq, fired       uint64
	pending          int
	credits          []int
	stats            []LinkStats
	tokensIn, tokOut uint64
}

func (s *slowStream) finish(t *testing.T) streamOutcome {
	t.Helper()
	s.k.RunUntil(2 * sim.Millisecond)
	if len(s.got) != s.total+1 {
		t.Fatalf("received %d tokens, want %d", len(s.got), s.total+1)
	}
	o := streamOutcome{
		got: append([]Token(nil), s.got...),
		now: s.k.Now(), seq: s.k.Seq(), fired: s.k.Fired(), pending: s.k.Pending(),
		tokensIn: s.dst.TokensIn, tokOut: s.src.TokensOut,
	}
	for _, l := range s.n.links {
		o.credits = append(o.credits, l.credits)
		o.stats = append(o.stats, l.Stats)
	}
	return o
}

// TestRestoreWithSlidFIFOs snapshots a backpressured stream at a moment
// when a link's receive FIFO and the destination channel end's buffer
// both sit at the end of their fixed backing, runs on, restores, and
// requires the remainder to replay exactly what an uninterrupted run
// produces: same tokens, same credits, same link statistics, same
// kernel accounting. Restore must also rewind both windows onto the
// front of the same backing arrays. The uninterrupted run is the fresh
// network's; the cut run starts from a restore of snapshots taken at
// construction, the empty prefix.
func TestRestoreWithSlidFIFOs(t *testing.T) {
	const total = 120
	s := newSlowStream(t, total)
	ks0, ns0 := s.k.Snapshot(), s.n.Snapshot()
	s.start()
	want := s.finish(t)

	s.k.Restore(ks0)
	s.n.Restore(ns0)
	s.start()
	var port *inPort
	// Stop at every event time: no drain stops between two events at one
	// instant, so this is the finest cut there is.
	for stops := 0; port == nil; stops++ {
		at, _, ok := s.k.NextForeign()
		if stops > 100_000 || !ok {
			t.Fatal("no moment with a port FIFO and the channel-end buffer both slid to the end")
		}
		s.k.RunUntil(at)
		if !slidToEnd(&s.dst.in) {
			continue
		}
		for _, l := range s.n.links {
			if slidToEnd(&l.dst.fifo) {
				port = l.dst
				break
			}
		}
	}
	if len(s.got) == 0 || len(s.got) >= total {
		t.Fatalf("snapshot point is not mid-stream: %d of %d tokens received", len(s.got), total)
	}
	ks, ns := s.k.Snapshot(), s.n.Snapshot()
	sent, got := s.sent, len(s.got)
	portToks := append([]Token(nil), port.fifo.live...)
	ceToks := append([]Token(nil), s.dst.in.live...)

	// Run on, at other link timings, so the restore has timings,
	// sliding, credits and statistics to undo.
	s.n.Retune(TimingInternalMax, TimingExternalMax, TimingExternalMax)
	s.k.RunFor(20 * sim.Microsecond)
	if len(s.got) == got {
		t.Fatal("nothing moved between snapshot and restore")
	}

	s.k.Restore(ks)
	s.n.Restore(ns)
	s.sent, s.got = sent, s.got[:got]
	for name, q := range map[string]*tokenFIFO{"port": &port.fifo, "chanend": &s.dst.in} {
		if len(q.live) == 0 || &q.live[0] != &q.buf[0] {
			t.Errorf("%s FIFO not rewound onto the front of its backing", name)
		}
	}
	if !reflect.DeepEqual(port.fifo.live, portToks) || !reflect.DeepEqual(s.dst.in.live, ceToks) {
		t.Fatal("restored FIFO contents differ from the snapshot")
	}
	if got := s.finish(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged from the uninterrupted run\n got %+v\nwant %+v", got, want)
	}
}

// TestIdleChanEndIsFresh pins the template a snapshot restores the
// channel ends it skipped to: every channel end of a just-built network
// is idle and snapshots to idleChanEnd exactly.
func TestIdleChanEndIsFresh(t *testing.T) {
	_, n := testNet(t, 1, 1, OperatingConfig())
	for _, node := range n.nodes {
		for _, ce := range n.switches[node].ces {
			if !ce.idle() || !reflect.DeepEqual(ce.snapshot(), idleChanEnd) {
				t.Fatalf("%v: fresh channel end idle=%v, snapshot %+v, want %+v", ce.ID(), ce.idle(), ce.snapshot(), idleChanEnd)
			}
		}
	}
}
