package core

import (
	"testing"

	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// runProfile captures every externally observable quantity of a short
// loaded run at one operating point.
type runProfile struct {
	instrs  uint64
	coreJ   float64
	wallJ   float64
	boardW  float64
	elapsed sim.Time
}

// profileRun loads a heavy four-thread workload on one supply group
// and measures through the full supply/ADC chain.
func profileRun(t *testing.T, m *Machine) runProfile {
	t.Helper()
	prog := workload.HeavyLoad(4, 3000)
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	if err := m.Load(node, prog); err != nil {
		t.Fatal(err)
	}
	m.RunFor(20 * sim.Microsecond)
	m.Board(0).SampleAll()
	m.RunFor(100 * sim.Microsecond)
	smp := m.Board(0).SampleAll()
	return runProfile{
		instrs:  m.TotalInstrCount(),
		coreJ:   totalCoreEnergyJ(m),
		wallJ:   m.WallEnergyJ(),
		boardW:  smp.TotalInputW(),
		elapsed: m.K.Now(),
	}
}

// TestMachineResetRetuneMatchesFresh is the machine-level
// reset-equals-rebuild contract, in both orders. A machine dirtied at
// one operating point, Reset and Retuned to another, and a machine
// built at one point, Retuned to another, dirtied and Reset, must each
// reproduce a fresh build at the second point exactly (instruction
// counts, energies, ADC readings, finish times, link timings).
func TestMachineResetRetuneMatchesFresh(t *testing.T) {
	check := func(name string, m *Machine, cfg xs1.Config, links noc.Config) {
		t.Helper()
		fresh := MustNew(1, 1, Options{Core: &cfg, Noc: &links})
		if m.Net.Cfg != fresh.Net.Cfg {
			t.Fatalf("%s: link timings %+v, fresh build has %+v", name, m.Net.Cfg, fresh.Net.Cfg)
		}
		if got, want := profileRun(t, m), profileRun(t, fresh); got != want {
			t.Fatalf("%s: recycled run diverges from fresh:\n got %+v\nwant %+v", name, got, want)
		}
	}
	slow, fast := xs1.Config{FreqMHz: 200, VDD: 1.0}, xs1.DefaultConfig()
	maxRate, operating := noc.MaxRateConfig(), noc.OperatingConfig()

	recycled := MustNew(1, 1, Options{})
	profileRun(t, recycled) // dirty at 500 MHz
	recycled.Reset()
	if err := recycled.Retune(Options{Core: &slow, Noc: &maxRate}.OperatingPoint()); err != nil {
		t.Fatal(err)
	}
	check("reset, then retune", recycled, slow, maxRate)

	retuned := MustNew(1, 1, Options{Core: &slow, Noc: &maxRate})
	if err := retuned.Retune(Options{Core: &fast, Noc: &operating}.OperatingPoint()); err != nil {
		t.Fatal(err)
	}
	profileRun(t, retuned)
	retuned.Reset()
	check("retune, then reset", retuned, fast, operating)
}

// TestPoolRecyclesByShape checks shape keying: equal structure with a
// different operating point reuses the build, different structure does
// not.
func TestPoolRecyclesByShape(t *testing.T) {
	p := NewPool()
	slow := xs1.Config{FreqMHz: 125, VDD: 1.0}

	m1, err := p.Get(1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Put(m1)

	m2, err := p.Get(1, 1, Options{Core: &slow})
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("same shape, different operating point: expected reuse")
	}
	if got := m2.Core(topo.MakeNodeID(0, 0, topo.LayerV)).Config(); got != slow {
		t.Fatalf("recycled machine config %+v, want %+v", got, slow)
	}
	p.Put(m2)

	m3, err := p.Get(2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("different grid recycled the same machine")
	}
	p.Put(m3)

	st := p.Stats()
	if st.Builds != 2 || st.Reuses != 1 || st.Returns != 3 || st.Idle != 2 {
		t.Fatalf("stats %+v, want 2 builds / 1 reuse / 3 returns / 2 idle", st)
	}
	p.Drain()
	if st := p.Stats(); st.Idle != 0 {
		t.Fatalf("idle after drain: %d", st.Idle)
	}
}

// TestPoolGetValidates pins pooled checkout to fresh-build validation.
func TestPoolGetValidates(t *testing.T) {
	p := NewPool()
	bad := xs1.Config{FreqMHz: 900, VDD: 1.0}
	if _, err := p.Get(1, 1, Options{Core: &bad}); err == nil {
		t.Fatal("over-frequency pooled checkout accepted")
	}
}

// TestPooledCheckoutAllocs is the steady-state guard: once a shape is
// warm, a full checkout / load / run / return cycle must be
// allocation-free apart from the handful of slice re-grows the first
// cycles settle.
func TestPooledCheckoutAllocs(t *testing.T) {
	p := NewPool()
	prog := workload.BusyLoop(2, 200)
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	cycle := func() {
		m, err := p.Get(1, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(node, prog); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		p.Put(m)
	}
	// Warm the shape until every kernel bucket has grown to its
	// steady-state capacity (bucket capacities migrate around the wheel
	// ring as runs rotate through it, so this takes tens of cycles).
	for i := 0; i < 60; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(10, cycle)
	if avg > 0.5 {
		t.Fatalf("pooled checkout/run cycle allocates %.1f times, want 0", avg)
	}
}
