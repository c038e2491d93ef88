package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

func TestMachineAssembly(t *testing.T) {
	m := MustNew(1, 1, Options{})
	if m.CoreCount() != 16 || m.Slices() != 1 {
		t.Fatalf("1x1 machine: %d cores, %d slices", m.CoreCount(), m.Slices())
	}
	if len(m.Cores()) != 16 {
		t.Fatalf("Cores() returned %d", len(m.Cores()))
	}
	if got := len(m.Supplies(0)); got != SliceSupplies {
		t.Fatalf("supplies = %d, want %d", got, SliceSupplies)
	}
	// Four 1 V rails with four cores each: each rail delivers exactly the
	// energy of the cores Rail names for it.
	m.RunFor(sim.Microsecond)
	var cores [SupplyGroups]int
	var coreJ [SupplyGroups]float64
	for _, c := range m.Cores() {
		_, g := Rail(m.Sys, c.Node())
		cores[g]++
		coreJ[g] += c.EnergyJ()
	}
	for g := 0; g < SupplyGroups; g++ {
		if cores[g] != CoresPerSupply {
			t.Errorf("rail %d feeds %d cores, want %d", g, cores[g], CoresPerSupply)
		}
		if got := m.Supplies(0)[g].OutputEnergyJ(); coreJ[g] == 0 || math.Abs(got-coreJ[g]) > 1e-12*coreJ[g] {
			t.Errorf("rail %d delivers %v J, its cores hold %v J", g, got, coreJ[g])
		}
	}
	if m.Board(0) == nil {
		t.Error("measurement board missing")
	}
}

func TestMachineLargestTestedScale(t *testing.T) {
	// The 480-core machine of the paper (30 slices).
	m := MustNew(5, 6, Options{})
	if m.CoreCount() != 480 {
		t.Fatalf("cores = %d, want 480", m.CoreCount())
	}
	// "the system provides up to 240GIPS".
	if g := m.PeakGIPS(); math.Abs(g-240) > 1e-9 {
		t.Errorf("peak GIPS = %v, want 240", g)
	}
}

func TestMachineValidation(t *testing.T) {
	if _, err := New(0, 1, Options{}); err == nil {
		t.Error("0x1 machine accepted")
	}
	bad := xs1.Config{FreqMHz: 9999, VDD: 1}
	if _, err := New(1, 1, Options{Core: &bad}); err == nil {
		t.Error("bad core config accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0,0) did not panic")
		}
	}()
	MustNew(0, 0, Options{})
}

func TestLoadAllAndRun(t *testing.T) {
	m := MustNew(1, 1, Options{})
	prog := xs1.MustAssemble(`
		getid r0
		dbg   r0
		tend
	`)
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Every core logged its own (distinct) node id.
	seen := map[uint32]bool{}
	for _, c := range m.Cores() {
		if len(c.DebugTrace) != 1 {
			t.Fatalf("core %v trace = %v", c.Node(), c.DebugTrace)
		}
		if seen[c.DebugTrace[0]] {
			t.Fatalf("duplicate node id %#x", c.DebugTrace[0])
		}
		seen[c.DebugTrace[0]] = true
	}
}

func TestLoadBadNode(t *testing.T) {
	m := MustNew(1, 1, Options{})
	err := m.Load(topo.MakeNodeID(50, 50, topo.LayerV), xs1.MustAssemble("tend"))
	if err == nil {
		t.Error("load to nonexistent node accepted")
	}
}

func TestRunTimesOut(t *testing.T) {
	m := MustNew(1, 1, Options{})
	// A spinning program never finishes.
	prog := xs1.MustAssemble("forever:\nbru forever")
	if err := m.Load(topo.MakeNodeID(0, 0, topo.LayerV), prog); err != nil {
		t.Fatal(err)
	}
	err := m.Run(100 * sim.Microsecond)
	if err == nil || !strings.Contains(err.Error(), "did not finish") {
		t.Fatalf("want timeout error, got %v", err)
	}
}

func TestRunSurfacesTraps(t *testing.T) {
	m := MustNew(1, 1, Options{})
	prog := xs1.MustAssemble("ldc r0, 3\ndivu r1, r0, r2\ntend")
	if err := m.Load(topo.MakeNodeID(0, 0, topo.LayerV), prog); err != nil {
		t.Fatal(err)
	}
	err := m.Run(sim.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("want trap error, got %v", err)
	}
}

// TestRunTrapsOutOfRangeRegister: an operand field names one of 64
// registers but a thread has NumRegs, so a word naming r40 is a decode
// fault that traps its thread, on both pipelines, not an index past the
// register file.
func TestRunTrapsOutOfRangeRegister(t *testing.T) {
	word := uint32(xs1.OpADD)<<24 | 40<<18 | 1<<12 | 2<<6 // add r40, r1, r2
	prog := xs1.MustAssemble(fmt.Sprintf(".word %#x\ntend", word))
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	for _, env := range []*Env{{Exact: true}, {}} {
		m, release, err := env.Checkout(1, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(node, prog); err != nil {
			t.Fatal(err)
		}
		err = m.Run(sim.Millisecond)
		trap := m.Core(node).Trapped()
		release()
		if trap == nil || err == nil || !strings.Contains(err.Error(), "decode at") {
			t.Errorf("exact=%v: Run = %v, trap %v; want a decode trap", env.Exact, err, trap)
		}
	}
}

func TestSliceWallPowerUnderLoad(t *testing.T) {
	// Section III-A: a fully loaded slice draws ~4.5 W at the wall.
	m := MustNew(1, 1, Options{})
	if err := m.LoadAll(workload.HeavyLoad(4, 100000)); err != nil {
		t.Fatal(err)
	}
	// Sample over the fully loaded region only.
	m.RunFor(100 * sim.Microsecond)
	m.Board(0).SampleAll()
	m.RunFor(sim.Millisecond)
	smp := m.Board(0).SampleAll()
	wall := smp.TotalInputW()
	if math.Abs(wall-4.5) > 0.45 {
		t.Errorf("loaded slice wall power = %.2f W, want ~4.5", wall)
	}
	// Per-node budget ~260 mW (the Fig. 2 total).
	perNode := wall / 16
	if math.Abs(perNode-0.260) > 0.03 {
		t.Errorf("per-node budget = %.0f mW, want ~260", perNode*1e3)
	}
}

func TestIdleSliceWallPower(t *testing.T) {
	// All cores idle at 500 MHz: 16 x 113 mW through the converters
	// plus the support rail: ~2.9 W.
	m := MustNew(1, 1, Options{})
	m.RunFor(sim.Millisecond)
	smp := m.Board(0).SampleAll()
	want := 16*0.113/CoreSupplyEfficiency + SliceSupportPowerW
	if math.Abs(smp.TotalInputW()-want) > 0.1 {
		t.Errorf("idle wall = %.2f W, want ~%.2f", smp.TotalInputW(), want)
	}
}

func TestSystemPower480Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("480-core machine in -short mode")
	}
	// "a complete 480 core, 30 slice system consumes only 134 W":
	// idle-side check scaled by our load model at full tilt is covered
	// per-slice; here we assemble the machine and check the static
	// arithmetic through the supply tree.
	m := MustNew(5, 6, Options{})
	m.RunFor(200 * sim.Microsecond)
	total := 0.0
	for i := 0; i < m.Slices(); i++ {
		total += m.Board(i).SampleAll().TotalInputW()
	}
	// Idle machine: 30 x ~2.93 W = ~88 W; full load would be ~134 W.
	if total < 80 || total > 95 {
		t.Errorf("idle 30-slice machine = %.1f W, want ~88", total)
	}
}

func TestEnergyReportDecomposition(t *testing.T) {
	m := MustNew(1, 1, Options{})
	if err := m.LoadAll(workload.HeavyLoad(4, 20000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if r.ComputationJ <= 0 || r.BackgroundJ <= 0 || r.ConversionJ <= 0 || r.SupportJ <= 0 {
		t.Fatalf("report has non-positive components: %+v", r)
	}
	// Background dominates computation for this light mix; both well
	// below total.
	if r.TotalJ() <= r.ComputationJ {
		t.Error("total not greater than one component")
	}
	// Wall energy equals the report's total (links included).
	if math.Abs(m.WallEnergyJ()-r.TotalJ()) > r.TotalJ()*1e-9 {
		t.Errorf("WallEnergyJ %v != report total %v", m.WallEnergyJ(), r.TotalJ())
	}
}

func TestMeanWallPower(t *testing.T) {
	m := MustNew(1, 1, Options{})
	if m.MeanWallPowerW() != 0 {
		t.Error("mean power nonzero before time passes")
	}
	m.RunFor(sim.Millisecond)
	p := m.MeanWallPowerW()
	if p < 2 || p > 4 {
		t.Errorf("idle mean wall power = %v W, want ~2.9", p)
	}
}

func TestSetAllFrequencies(t *testing.T) {
	m := MustNew(1, 1, Options{})
	if err := m.SetAllFrequencies(71); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cores() {
		if c.Config().FreqMHz != 71 {
			t.Fatalf("core %v at %v MHz", c.Node(), c.Config().FreqMHz)
		}
	}
	if err := m.SetAllFrequencies(0); err == nil {
		t.Error("0 MHz accepted")
	}
	if g := m.PeakGIPS(); math.Abs(g-16*71e6/1e9) > 1e-9 {
		t.Errorf("GIPS at 71 MHz = %v", g)
	}
}

func TestCoreAtAccessor(t *testing.T) {
	m := MustNew(1, 1, Options{})
	n := topo.MakeNodeID(1, 3, topo.LayerH)
	if c := m.Core(n); c == nil || c.Node() != n {
		t.Error("Core wrong")
	}
}

// TestRunNamesDeadlock pins the diagnosis Run gives when the kernel
// runs dry with threads still live: it stops polling, lands the clock
// on the deadline as the exhausted poll loop did, keeps the "did not
// finish" text and says which thread waits on which channel end, and
// what for — on the fast path and on the reference pipeline alike.
func TestRunNamesDeadlock(t *testing.T) {
	m := MustNew(1, 1, Options{})
	rx := topo.MakeNodeID(1, 2, topo.LayerH)
	if err := m.Load(rx, workload.StreamRx(4)); err != nil {
		t.Fatal(err)
	}
	// One token of the word the receiver wants, and nobody to send more.
	feed := m.Net.Switch(topo.MakeNodeID(1, 2, topo.LayerV)).ChanEnd(7)
	feed.SetDest(noc.MakeChanEndID(uint16(rx), 0))
	feed.TryOut(noc.DataToken(0x5A))
	err := m.Run(5 * sim.Millisecond)
	if err == nil {
		t.Fatal("a receiver with no sender finished")
	}
	want := fmt.Sprintf("core: machine did not finish within %v: deadlock, no event pending: 1 stuck (%v thread 0 on chanend %v: IN holds 1 of 4 tokens)",
		5*sim.Millisecond, rx, noc.MakeChanEndID(uint16(rx), 0))
	if err.Error() != want {
		t.Errorf("error\n got %q\nwant %q", err, want)
	}
	exact := MustNew(1, 1, Options{})
	exact.setExact(true)
	loadOn(t, exact, rx, workload.StreamRx(4))
	want = fmt.Sprintf("core: machine did not finish within %v: deadlock, no event pending: 1 stuck (%v thread 0 on chanend %v: IN holds 0 of 4 tokens)",
		5*sim.Millisecond, rx, noc.MakeChanEndID(uint16(rx), 0))
	if err := exact.Run(5 * sim.Millisecond); err == nil || err.Error() != want {
		t.Errorf("exact error\n got %q\nwant %q", err, want)
	}
	if m.K.Now() != 5*sim.Millisecond {
		t.Errorf("clock at %v after a deadlocked Run, want the deadline", m.K.Now())
	}
	// Polling would have fired nothing more; the jump must not either.
	if m.K.Pending() != 0 {
		t.Errorf("%d events pending after the jump to the deadline", m.K.Pending())
	}
}

// TestRunStopsAtTheDeadline pins the last poll step: with a horizon that
// is no multiple of the step, a machine that does not finish is left
// with its clock on the deadline — where the deadlock path's jump lands
// it too — not a step past it.
func TestRunStopsAtTheDeadline(t *testing.T) {
	m := MustNew(1, 1, Options{})
	if err := m.Load(topo.MakeNodeID(0, 0, topo.LayerV), workload.HeavyLoad(4, 1<<20)); err != nil {
		t.Fatal(err)
	}
	const horizon = 2*sim.Microsecond + 500*sim.Nanosecond
	err := m.Run(horizon)
	if want := fmt.Sprintf("core: machine did not finish within %v", horizon); err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
	if m.K.Now() != horizon {
		t.Errorf("clock at %v after the horizon passed, want the deadline %v", m.K.Now(), horizon)
	}
}

// TestRunNamesRoutingDeadlock replays the hang bench/README.md
// records (seed 17, op 69, before the benchmark restricted stream
// directions): sixteen long-lived streams between random nodes of a
// 2x2-slice machine whose held routes wait on each other in a ring.
// Run used to poll a thousand empty steps and say only "did not
// finish"; it must now name the threads that wait.
func TestRunNamesRoutingDeadlock(t *testing.T) {
	n := func(x, y, l int) topo.NodeID { return topo.MakeNodeID(x, y, topo.Layer(l)) }
	streams := [][2]topo.NodeID{
		{n(3, 7, 0), n(3, 7, 1)}, {n(0, 4, 1), n(0, 4, 0)}, {n(2, 1, 1), n(2, 1, 0)}, {n(0, 6, 1), n(0, 6, 0)},
		{n(3, 1, 0), n(2, 3, 0)}, {n(2, 5, 0), n(3, 6, 1)}, {n(0, 3, 1), n(0, 2, 1)}, {n(2, 0, 1), n(3, 3, 0)},
		{n(1, 5, 1), n(1, 7, 1)}, {n(3, 4, 1), n(2, 4, 1)}, {n(1, 5, 0), n(3, 0, 1)}, {n(3, 3, 1), n(1, 0, 0)},
		{n(3, 2, 0), n(3, 6, 0)}, {n(0, 0, 1), n(3, 4, 0)}, {n(2, 4, 0), n(1, 3, 0)}, {n(1, 0, 1), n(3, 2, 1)},
	}
	m := MustNew(2, 2, Options{})
	for _, s := range streams {
		loadOn(t, m, s[1], workload.StreamRx(400))
		loadOn(t, m, s[0], workload.StreamTx(noc.MakeChanEndID(uint16(s[1]), 0), 400))
	}
	err := m.Run(20 * sim.Millisecond)
	if err == nil {
		t.Fatal("the ring of held routes resolved; pick another placement")
	}
	msg := err.Error()
	// A ring of full routes: the senders it names wait for slots, the
	// receivers for the rest of a word.
	for _, want := range []string{"did not finish within", "deadlock, no event pending", " stuck (", " thread 0 on chanend ",
		": OUT has ", " of 4 slots", ": IN holds ", " of 4 tokens"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q lacks %q", msg, want)
		}
	}
	stuck := 0
	for _, c := range m.Cores() {
		if !c.Done() {
			stuck++
		}
	}
	if stuck < 4 {
		t.Errorf("%d cores stuck; a ring needs at least two streams", stuck)
	}
	if !strings.Contains(msg, fmt.Sprintf("%d stuck", stuck)) {
		t.Errorf("error %q does not count the %d stuck threads", msg, stuck)
	}
	if m.K.Now() != 20*sim.Millisecond {
		t.Errorf("clock at %v, want the deadline", m.K.Now())
	}
}

// totalCoreEnergyJ sums processor energy across the machine in
// deterministic node order (float sums must not depend on map order,
// or a reset re-run could differ in the last bit).
func totalCoreEnergyJ(m *Machine) float64 {
	e := 0.0
	for _, node := range m.nodes {
		e += m.cores[node].EnergyJ()
	}
	return e
}
