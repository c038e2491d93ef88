package core

import (
	"math/rand"
	"testing"

	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// turboCut is everything the kernel and cores expose at one RunFor
// boundary: the architectural state the turbo contract pins. Seq,
// Fired and Pending catch any batching scheme that reorders or
// swallows events even when the visible counters happen to agree.
type turboCut struct {
	fp                  string
	now                 sim.Time
	seq, fired          uint64
	pending             int
	batches, instrs     uint64
	decodeHits, decodeM uint64
}

// turboShape is one machine and workload the differential runs: build
// returns a fresh, loaded machine.
type turboShape struct {
	name  string
	build func(t *testing.T) *Machine
}

var turboShapes = []turboShape{
	// One slice: a three-stage comm pipeline plus a four-thread
	// compute-heavy core.
	{"1x1-pipeline", func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		loadPipeline(t, m, 64)
		loadOn(t, m, topo.MakeNodeID(1, 1, topo.LayerV), workload.HeavyLoad(4, 40))
		return m
	}},
	// Four slices: sixteen concurrent word streams over package, board
	// and cable links plus one compute-heavy core. The batching group
	// has 64 members, most of them asleep on a channel end, and the
	// queue head is as often a link or channel-end timer as an issue
	// timer — the shape the communication path's absorb runs in.
	{"2x2-streams", func(t *testing.T) *Machine {
		m := MustNew(2, 2, Options{})
		loadStreams(t, m, 24)
		loadOn(t, m, topo.MakeNodeID(2, 1, topo.LayerV), workload.HeavyLoad(4, 40))
		return m
	}},
}

func loadOn(t *testing.T, m *Machine, node topo.NodeID, p *xs1.Program) {
	t.Helper()
	if err := m.Load(node, p); err != nil {
		t.Fatal(err)
	}
}

// loadStreams places sixteen StreamTx/StreamRx pairs on a 2x2-slice
// machine: four inside a package, six between packages of one board,
// six between boards. Every stream runs south or east, so no ring of
// held routes can close (bench/README.md records the deadlock that
// unrestricted directions produce).
func loadStreams(t *testing.T, m *Machine, words int) {
	t.Helper()
	n, v, h := topo.MakeNodeID, topo.LayerV, topo.LayerH
	streams := [][2]topo.NodeID{
		{n(0, 0, v), n(0, 0, h)}, {n(3, 0, v), n(3, 0, h)}, {n(0, 7, v), n(0, 7, h)}, {n(3, 7, v), n(3, 7, h)},
		{n(0, 1, v), n(0, 2, v)}, {n(1, 0, v), n(1, 2, v)}, {n(0, 1, h), n(1, 1, h)},
		{n(2, 5, v), n(2, 6, v)}, {n(2, 4, h), n(3, 4, h)}, {n(3, 5, v), n(3, 6, v)},
		{n(1, 3, v), n(1, 4, v)}, {n(0, 3, v), n(0, 5, v)}, {n(1, 2, h), n(2, 2, h)},
		{n(1, 5, h), n(2, 5, h)}, {n(2, 3, v), n(2, 4, v)}, {n(1, 6, h), n(3, 6, h)},
	}
	used := make(map[topo.NodeID]bool)
	kinds := [3]int{}
	for _, s := range streams {
		if used[s[0]] || used[s[1]] || s[1].X() < s[0].X() || s[1].Y() < s[0].Y() {
			t.Fatalf("stream %v -> %v reuses a node or runs north/west", s[0], s[1])
		}
		used[s[0]], used[s[1]] = true, true
		switch {
		case s[0].Package() == s[1]:
			kinds[0]++
		case m.Sys.SameSlice(s[0], s[1]):
			kinds[1]++
		default:
			kinds[2]++
		}
		loadOn(t, m, s[1], workload.StreamRx(words))
		loadOn(t, m, s[0], workload.StreamTx(noc.MakeChanEndID(uint16(s[1]), 0), words))
	}
	if kinds != [3]int{4, 6, 6} {
		t.Fatalf("streams by distance class = %v, want 4 package, 6 board, 6 cable", kinds)
	}
}

// runSchedule builds the shape's machine and runs the given RunFor
// schedule, recording a cut after every segment.
func runSchedule(t *testing.T, shape turboShape, schedule []sim.Time) []turboCut {
	t.Helper()
	m := shape.build(t)
	cuts := make([]turboCut, 0, len(schedule))
	for _, d := range schedule {
		m.RunFor(d)
		ts := xs1.ReadTurboStats()
		cuts = append(cuts, turboCut{
			fp:         fingerprint(m),
			now:        m.K.Now(),
			seq:        m.K.Seq(),
			fired:      m.K.Fired(),
			pending:    m.K.Pending(),
			batches:    ts.Batches,
			instrs:     ts.BatchedInstrs,
			decodeHits: ts.DecodeHits,
			decodeM:    ts.DecodeMisses,
		})
	}
	return cuts
}

// TestTurboRandomizedDifferential runs the same randomized RunFor
// schedule through the slow one-instruction-per-event path and the
// batched turbo path on twin machines and requires identical core
// fingerprints and identical kernel (time, seq) accounting — Now,
// Seq, Fired, Pending — at every boundary. The cut points are
// arbitrary relative to the workload, so each one lands the batch
// loop at a different foreign-event horizon: sibling-core issue
// ties, comm instructions, thread sleeps and RunFor deadlines all
// get exercised as batch exits.
func TestTurboRandomizedDifferential(t *testing.T) {
	defer xs1.SetTurbo(true)
	for _, shape := range turboShapes {
		t.Run(shape.name, func(t *testing.T) { turboDifferential(t, shape) })
	}
}

func turboDifferential(t *testing.T, shape turboShape) {
	rng := rand.New(rand.NewSource(0x5eed70b0))
	const segments = 40
	schedule := make([]sim.Time, segments)
	for i := range schedule {
		// 1ps .. ~8µs, log-ish spread so some cuts land mid-batch
		// after a handful of picoseconds and others span thousands
		// of instructions.
		schedule[i] = sim.Time(1 + rng.Int63n(1<<uint(3+rng.Intn(21))))
	}

	xs1.SetTurbo(false)
	slow := runSchedule(t, shape, schedule)
	xs1.SetTurbo(true)
	fast := runSchedule(t, shape, schedule)

	turboBatches := fast[len(fast)-1].batches - slow[len(slow)-1].batches
	if turboBatches == 0 {
		t.Fatal("turbo run recorded no batches; fast path not exercised")
	}
	for i := range schedule {
		s, f := slow[i], fast[i]
		if s.now != f.now || s.seq != f.seq || s.fired != f.fired || s.pending != f.pending {
			t.Fatalf("cut %d (after RunFor(%d)): kernel accounting diverged\n slow now=%d seq=%d fired=%d pending=%d\nturbo now=%d seq=%d fired=%d pending=%d",
				i, schedule[i], s.now, s.seq, s.fired, s.pending, f.now, f.seq, f.fired, f.pending)
		}
		if s.fp != f.fp {
			t.Fatalf("cut %d (after RunFor(%d), now=%d): fingerprint diverged\n slow %s\nturbo %s",
				i, schedule[i], s.now, s.fp, f.fp)
		}
	}
}

// TestTurboToggle pins the wiring: SetTurbo flips TurboEnabled and
// the default is on.
func TestTurboToggle(t *testing.T) {
	defer xs1.SetTurbo(true)
	if !xs1.TurboEnabled() {
		t.Fatal("turbo must default on")
	}
	xs1.SetTurbo(false)
	if xs1.TurboEnabled() {
		t.Fatal("SetTurbo(false) did not disable")
	}
	xs1.SetTurbo(true)
	if !xs1.TurboEnabled() {
		t.Fatal("SetTurbo(true) did not re-enable")
	}
}
