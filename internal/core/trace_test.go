package core

import (
	"math"
	"runtime"
	"testing"

	"swallow/internal/energy"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/trace"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// TestTracedCheckoutRecords verifies the attachment seam end to end:
// a checkout under a traced Env gets a recorder, the run emits events
// through every hooked layer it touches, and release files the
// recording with the Env's session — and no other.
func TestTracedCheckoutRecords(t *testing.T) {
	sess, bystander := trace.NewSession(0), trace.NewSession(0)
	other, releaseOther, err := TracedEnv(bystander).Checkout(1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		releaseOther()
		if n := len(bystander.Recordings()); n != 1 {
			t.Errorf("the second live session collected %d recordings, want its own 1", n)
		}
	}()

	m, release, err := TracedEnv(sess).Checkout(1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.K.Recorder() == nil {
		t.Fatal("checkout under a traced Env left no recorder on the kernel")
	}
	if m.K.Recorder() == other.K.Recorder() {
		t.Fatal("two live sessions share a recorder")
	}
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	if err := m.Load(node, workload.BusyLoop(2, 200)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	release()
	if m.K.Recorder() != nil {
		t.Error("release should detach the recorder")
	}

	recs := sess.Recordings()
	if len(recs) != 1 {
		t.Fatalf("session collected %d recordings, want 1", len(recs))
	}
	counts := make(map[trace.Kind]int)
	for _, ev := range recs[0].Events {
		counts[ev.Kind]++
	}
	for _, want := range []trace.Kind{
		trace.KindCheckout, trace.KindRelease,
		trace.KindKernelEvent, trace.KindThreadState,
	} {
		if counts[want] == 0 {
			t.Errorf("recording has no %v events (got %v)", want, counts)
		}
	}
	if recs[0].Events[0].Kind != trace.KindCheckout {
		t.Errorf("first event = %v, want checkout", recs[0].Events[0].Kind)
	}
	// Release precedes only the pool's park-time event (the Reset's
	// restore); nothing after it may come from the workload.
	seenRelease := false
	for _, ev := range recs[0].Events {
		if ev.Kind == trace.KindRelease {
			seenRelease = true
		} else if seenRelease && ev.Src != trace.SrcMachine {
			t.Errorf("component event %v recorded after release", ev.Kind)
		}
	}
}

// TestUntracedRunZeroAlloc pins the trace-disabled hot path: with no
// recorder attached the kernel's pointer is nil and a warm run must stay
// allocation-free — the observability layer costs one pointer load and
// one branch, never an allocation.
func TestUntracedRunZeroAlloc(t *testing.T) {
	m, err := New(1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A load that cannot quiesce inside the measured window, so the
	// guard times live execution rather than an idle kernel. Each core
	// gets a program of its own, as loadLockstep gives them: cores loaded
	// from one program would be twins and compute one window between them
	// (TestTwinRunZeroAlloc), and there would be no sixteen to fan out.
	for _, c := range m.Cores() {
		loadOn(t, m, c.Node(), workload.HeavyLoad(4, 50_000_000))
	}
	// Warm the kernel's bucket capacities to steady state; capacities
	// migrate around the wheel ring as runs rotate through it, so this
	// takes hundreds of same-sized bursts (see TestPooledCheckoutAllocs).
	for i := 0; i < 300; i++ {
		m.RunFor(20 * sim.Microsecond)
	}
	before, warm := m.TotalInstrCount(), xs1.ReadTurboStats()
	avg := testing.AllocsPerRun(20, func() {
		m.RunFor(20 * sim.Microsecond)
	})
	if m.TotalInstrCount() == before {
		t.Fatal("measurement runs executed no instructions")
	}
	// Sixteen loaded cores in lockstep run ahead of the clock and are
	// replayed, by whole turns of the group ring; the slot logs that
	// takes are part of each core.
	if ts := xs1.ReadTurboStats(); ts.PreexecSlots == warm.PreexecSlots || ts.RoundSlots == warm.RoundSlots {
		t.Errorf("measurement runs pre-executed %d slots and retired %d of them by rounds, want both above 0",
			ts.PreexecSlots-warm.PreexecSlots, ts.RoundSlots-warm.RoundSlots)
	}
	if avg > 0 {
		t.Fatalf("untraced RunFor allocates %.2f times per run, want 0", avg)
	}

	// AllocsPerRun measures on one host thread, where the simulation
	// goroutine pre-executes every window itself. On four the sixteen
	// windows of each run are offered to the helper pool, and handing
	// them out must cost the heap nothing either. The count is the whole
	// process's, and the runtime now and then allocates a record for a
	// goroutine to park on or a thread to wake a helper on; so it is
	// taken as AllocsPerRun takes it — whole allocations per run, which
	// anything allocated for every fan-out reaches and a stray one does
	// not — and as the least of three measurements.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	warm = xs1.ReadTurboStats()
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			m.RunFor(20 * sim.Microsecond)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/20)
	}
	if ts := xs1.ReadTurboStats(); ts.Fanouts == warm.Fanouts {
		t.Error("no window was offered to the helper pool on four host threads")
	}
	if least > 0 {
		t.Fatalf("untraced RunFor on four host threads allocates %d times per run, want 0", least)
	}
}

// TestCommRunZeroAllocs pins the communication path: word streams
// crossing a package-internal link, a board link and an inter-board
// cable run to completion on a warm machine without allocating. Every
// piece the per-token path touches is preallocated — channel wake
// callbacks, port and channel-end FIFOs, waiter lists, the kernel's
// buckets — so a comm-bound Run costs the heap nothing.
func TestCommRunZeroAllocs(t *testing.T) {
	m, err := New(2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const words = 200
	streams := [][2]topo.NodeID{
		{topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 0, topo.LayerH)}, // package
		{topo.MakeNodeID(0, 1, topo.LayerV), topo.MakeNodeID(0, 3, topo.LayerV)}, // board
		{topo.MakeNodeID(1, 2, topo.LayerH), topo.MakeNodeID(2, 2, topo.LayerH)}, // cable
	}
	if m.Sys.SameSlice(streams[2][0], streams[2][1]) || !m.Sys.SameSlice(streams[1][0], streams[1][1]) {
		t.Fatal("stream placement does not cover a board link and a cable")
	}
	type placed struct {
		node topo.NodeID
		prog *xs1.Program
	}
	var progs []placed
	for _, s := range streams {
		progs = append(progs,
			placed{s[1], workload.StreamRx(words)},
			placed{s[0], workload.StreamTx(noc.MakeChanEndID(uint16(s[1]), 0), words)})
	}
	var runErr error
	op := func() {
		m.Reset()
		for _, p := range progs {
			if err := m.Load(p.node, p.prog); err != nil {
				runErr = err
				return
			}
		}
		if err := m.Run(20 * sim.Millisecond); err != nil {
			runErr = err
		}
	}
	// One warm-up sizes every queue. The op repeats exactly, and the
	// kernel keeps each bucket's backing at its wheel position
	// (sim.TestBucketBackingsStayPut), so the second run already finds
	// everything the first one grew — however many events an op is.
	op()
	if runErr != nil {
		t.Fatal(runErr)
	}
	avg := testing.AllocsPerRun(5, op)
	if runErr != nil {
		t.Fatal(runErr)
	}
	want := uint32(words * (words - 1) / 2)
	for _, s := range streams {
		if got := m.Core(s[1]).DebugTrace; len(got) != 1 || got[0] != want {
			t.Fatalf("receiver %v: trace %v, want [%d]", s[1], got, want)
		}
	}
	if tok := m.Net.StatsByClass()[energy.LinkOffBoard].Tokens; tok == 0 {
		t.Fatal("no token crossed the cable")
	}
	if avg > 0 {
		t.Fatalf("Reset + Load + comm-bound Run allocates %.2f times per op, want 0", avg)
	}
}
