package core

import (
	"fmt"
	"math"
	"testing"

	"swallow/internal/bridge"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// loadPipeline places a three-stage pipeline (source -> stage -> sink)
// on the South column of a 1x1 machine, sink first so every receiver
// is resident before its sender issues.
func loadPipeline(t *testing.T, m *Machine, items int) {
	t.Helper()
	chan0 := func(n topo.NodeID) noc.ChanEndID {
		return noc.MakeChanEndID(uint16(n), 0)
	}
	sink := topo.MakeNodeID(0, 0, topo.LayerV)
	stage := topo.MakeNodeID(0, 1, topo.LayerV)
	source := topo.MakeNodeID(0, 2, topo.LayerV)
	if err := m.Load(sink, workload.PipelineSink(items)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(stage, workload.PipelineStage(chan0(sink), items, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(source, workload.PipelineSource(chan0(stage), items)); err != nil {
		t.Fatal(err)
	}
}

// fingerprint summarises every machine-observable outcome a sweep
// reads: time, instruction and energy counters (exact float bits),
// debug traces and console output.
func fingerprint(m *Machine) string {
	s := fmt.Sprintf("now=%d wall=%x link=%x", m.K.Now(),
		math.Float64bits(m.WallEnergyJ()), math.Float64bits(m.Net.TotalLinkEnergyJ()))
	for i, c := range m.Cores() {
		s += fmt.Sprintf(" c%d{n=%d dyn=%x e=%x last=%d trace=%v con=%q}",
			i, c.InstrCount, math.Float64bits(c.DynamicEnergyJ()),
			math.Float64bits(c.EnergyJ()), c.LastIssue, c.DebugTrace, c.Console)
	}
	return s
}

// stop runs the machine to its next event's time, firing everything
// due at that instant, and reports false when nothing is pending. No
// drain can stop between two events at the same instant, so this is the
// finest cut a run can be snapshotted at.
func stop(m *Machine) bool {
	at, _, ok := m.K.NextForeign()
	if ok {
		m.K.RunUntil(at)
	}
	return ok
}

// instant is where a stop left the kernel: its clock and its count of
// events fired.
type instant struct {
	now   sim.Time
	fired uint64
}

// drain stops the machine at every event time to quiescence, recording
// each instant — the remaining event sequence a snapshot must replay.
func drain(t *testing.T, m *Machine) []instant {
	t.Helper()
	var seq []instant
	for i := 0; stop(m); i++ {
		if i > 5_000_000 {
			t.Fatal("event sequence did not quiesce")
		}
		seq = append(seq, instant{m.K.Now(), m.K.Fired()})
	}
	return seq
}

func sameSeq(a, b []instant) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// TestMachineSnapshotDifferential is the warm-start contract test:
// Restore must be byte-identical to a fresh build re-running the
// prefix, both in every machine-observable counter and in the exact
// remaining event sequence.
func TestMachineSnapshotDifferential(t *testing.T) {
	const items, prefix = 48, 2500
	m := MustNew(1, 1, Options{})
	loadPipeline(t, m, items)
	for i := 0; i < prefix; i++ {
		if !stop(m) {
			t.Fatalf("pipeline quiesced after %d stops; prefix %d too long", i, prefix)
		}
	}
	snap := m.Snapshot()
	wantSeq := drain(t, m)
	if len(wantSeq) < 100 {
		t.Fatalf("only %d events after the prefix; snapshot point uninteresting", len(wantSeq))
	}
	wantFP := fingerprint(m)

	// Path 1: restore the snapshot and replay.
	m.Restore(snap)
	gotSeq := drain(t, m)
	if i, ok := sameSeq(wantSeq, gotSeq); !ok {
		t.Fatalf("restored replay diverged at step %d (len %d vs %d)", i, len(wantSeq), len(gotSeq))
	}
	if got := fingerprint(m); got != wantFP {
		t.Fatalf("restored replay fingerprint:\n got %s\nwant %s", got, wantFP)
	}

	// Path 2: a fresh build re-runs the prefix, then replays — the
	// definition the snapshot must match.
	fresh := MustNew(1, 1, Options{})
	loadPipeline(t, fresh, items)
	for i := 0; i < prefix; i++ {
		stop(fresh)
	}
	gotSeq = drain(t, fresh)
	if i, ok := sameSeq(wantSeq, gotSeq); !ok {
		t.Fatalf("fresh rerun replay diverged at step %d (len %d vs %d)", i, len(wantSeq), len(gotSeq))
	}
	if got := fingerprint(fresh); got != wantFP {
		t.Fatalf("fresh rerun fingerprint:\n got %s\nwant %s", got, wantFP)
	}

	// The snapshot must survive an intervening Reset and restore again.
	m.Reset()
	m.Restore(snap)
	gotSeq = drain(t, m)
	if i, ok := sameSeq(wantSeq, gotSeq); !ok {
		t.Fatalf("second restore diverged at step %d", i)
	}
}

// TestMachineSnapshotRandomizedBoundaries snapshots at arbitrary event
// boundaries mid-run and verifies the restored machine replays the
// identical remaining event sequence and final state. The workload is
// in-SRAM programs, so the snapshot captures all driving state. Every
// trial runs on a fresh build, so the run a restore must reproduce
// never begins with a restore itself.
func TestMachineSnapshotRandomizedBoundaries(t *testing.T) {
	const items = 40
	m := MustNew(1, 1, Options{})
	loadPipeline(t, m, items)
	total := len(drain(t, m))
	if total < 2000 {
		t.Fatalf("pipeline only stops at %d instants; workload too small to probe", total)
	}
	// Deterministic pseudo-random boundaries spread over the run.
	rnd := uint64(1)
	for trial := 0; trial < 6; trial++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		cut := 50 + int(rnd%uint64(total-100))
		m := MustNew(1, 1, Options{})
		loadPipeline(t, m, items)
		for i := 0; i < cut; i++ {
			stop(m)
		}
		snap := m.Snapshot()
		wantSeq := drain(t, m)
		wantFP := fingerprint(m)
		m.Restore(snap)
		gotSeq := drain(t, m)
		if i, ok := sameSeq(wantSeq, gotSeq); !ok {
			t.Fatalf("cut %d: replay diverged at step %d (len %d vs %d)",
				cut, i, len(wantSeq), len(gotSeq))
		}
		if got := fingerprint(m); got != wantFP {
			t.Fatalf("cut %d: fingerprint\n got %s\nwant %s", cut, got, wantFP)
		}
	}

	// The same contract where the fast path counts stalls: a stop at the
	// next event's time leaves no room to, so sixteen word streams run in RunFor segments a few cycles to
	// a few microseconds long, are snapshotted at a segment boundary, and
	// after Restore have to pass through the same kernel accounting, core
	// fingerprints and thread states at every later boundary — with slots
	// counted before the snapshot and after it, on both sides.
	segments := func(seed uint64) []sim.Time {
		out := make([]sim.Time, 60)
		for i := range out {
			seed = seed*6364136223846793005 + 1442695040888963407
			out[i] = sim.Time(1+seed>>33%2000) * 2 * sim.Nanosecond
		}
		return out
	}
	boundary := func(m *Machine) string {
		return fmt.Sprintf("seq=%d fired=%d pending=%d %s%s", m.K.Seq(), m.K.Fired(), m.K.Pending(), fingerprint(m), threadStates(m))
	}
	for trial := uint64(0); trial < 4; trial++ {
		schedule := segments(trial + 1)
		cut := 5 + int(trial)*11
		sm := MustNew(2, 2, Options{})
		loadStreams(t, sm, 240)
		for _, d := range schedule[:cut] {
			sm.RunFor(d)
		}
		counted := xs1.ReadTurboStats().CountedSlots
		snap := sm.Snapshot()
		var want []string
		for _, d := range schedule[cut:] {
			sm.RunFor(d)
			want = append(want, boundary(sm))
		}
		if xs1.ReadTurboStats().CountedSlots == counted {
			t.Fatalf("streams trial %d: no slot was counted after the snapshot; counting is not live", trial)
		}
		sm.Restore(snap)
		for i, d := range schedule[cut:] {
			sm.RunFor(d)
			if got := boundary(sm); got != want[i] {
				t.Fatalf("streams trial %d: restored run diverged %d segments after the snapshot\n got %s\nwant %s", trial, i+1, got, want[i])
			}
		}
	}
}

// TestWarmRestoreAllocs is the zero-alloc guard: once a machine's
// slice capacities are warm, restoring a snapshot after a run must
// allocate nothing — dirty SRAM pages are copied into place, queues
// rewound in their existing backing arrays.
func TestWarmRestoreAllocs(t *testing.T) {
	const items = 16
	m := MustNew(1, 1, Options{})
	loadPipeline(t, m, items)
	for i := 0; i < 1500; i++ {
		stop(m)
	}
	snap := m.Snapshot()
	cycle := func() {
		for i := 0; i < 200; i++ {
			stop(m)
		}
		m.Restore(snap)
	}
	// Warm slice capacities (kernel buckets migrate around the wheel).
	for i := 0; i < 60; i++ {
		cycle()
	}
	before := ReadSnapshotStats()
	if avg := testing.AllocsPerRun(10, cycle); avg > 0.5 {
		t.Fatalf("warm restore cycle allocates %.1f times, want 0", avg)
	}
	after := ReadSnapshotStats()
	if after.Restores <= before.Restores {
		t.Fatalf("restore counter did not advance: %+v -> %+v", before, after)
	}
}

// TestPristineSnapshotHoldsNoSRAM pins what New's snapshot costs: a
// just-built machine has never written its SRAM, so the snapshot Reset
// restores copies none of it, even for the 480 cores of Fig. 1.
func TestPristineSnapshotHoldsNoSRAM(t *testing.T) {
	m := MustNew(5, 6, Options{})
	for i, cs := range m.pristine.cores {
		if n := cs.SRAMBytes(); n != 0 {
			t.Fatalf("core %v: the snapshot of a just-built machine holds %d SRAM bytes", m.nodes[i], n)
		}
	}
}

// TestBridgePooling pins bridges to their machine across Reset and
// pool recycling: the same built bridge is revived, not rebuilt.
func TestBridgePooling(t *testing.T) {
	node := topo.MakeNodeID(0, topo.PackagesPerSliceY-1, topo.LayerV)
	p := NewPool()
	m, err := p.Get(1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m.Bridge(node)
	if err != nil {
		t.Fatal(err)
	}
	if b2, err := m.Bridge(node); err != nil || b2 != b1 {
		t.Fatalf("second Bridge call: %v, same=%v", err, b2 == b1)
	}
	p.Put(m)
	m2, err := p.Get(1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatal("pool did not recycle the machine")
	}
	b3, err := m2.Bridge(node)
	if err != nil {
		t.Fatalf("reviving pooled bridge: %v", err)
	}
	if b3 != b1 {
		t.Fatal("pooled machine rebuilt its bridge")
	}
	// The revived bridge must hold live claims again: a fresh attach at
	// the same node must fail.
	if _, err := bridge.New(m2.K, m2.Net, node); err == nil {
		t.Fatal("revived bridge holds no claims")
	}
	p.Put(m2)
}
