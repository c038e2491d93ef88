package core

import (
	"fmt"
	"runtime"
	"testing"

	"swallow/internal/sim"
	"swallow/internal/trace"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// TestTwinRunZeroAlloc pins the twin path at zero allocations: a warm
// slice loaded from one program, whose cores adopt all but one window of
// every refill (xs1 twin.go), runs without touching the heap.
func TestTwinRunZeroAlloc(t *testing.T) {
	m := loadedAll(t, workload.HeavyLoad(4, 50_000_000))
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
	if ts := xs1.ReadTurboStats(); ts.AdoptedSlots == warm.AdoptedSlots {
		t.Error("measurement runs adopted no slots")
	}
	if avg > 0 {
		t.Fatalf("untraced RunFor of a twin-loaded slice allocates %.2f times per run, want 0", avg)
	}
}

// loadAlternating loads progs onto m's cores in turn, in node order: one
// program makes one twin class of the machine, two make two.
func loadAlternating(m *Machine, progs ...*xs1.Program) error {
	for i, c := range m.Cores() {
		if err := c.Load(progs[i%len(progs)]); err != nil {
			return err
		}
	}
	return nil
}

// TestTwinsComputeOneWindow pins one window per twin class at every
// refill: on a slice loaded from one program, the core whose streak opens
// a refill asks for its window from the time its fifteen twins hold, so it
// shares their class and they adopt all but one window in sixteen; on a
// slice loaded with two programs on alternating cores, all but two.
func TestTwinsComputeOneWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		progs []*xs1.Program
		least uint64 // sixteenths of the pre-executed slots adopted, at least
	}{
		{"one program", []*xs1.Program{workload.HeavyLoad(4, 1<<20)}, 15},
		{"two programs", []*xs1.Program{workload.HeavyLoad(4, 1<<20), workload.HeavyLoad(4, 1<<19)}, 14},
	} {
		m := MustNew(1, 1, Options{})
		if err := loadAlternating(m, tc.progs...); err != nil {
			t.Fatal(err)
		}
		before := xs1.ReadTurboStats()
		m.RunFor(200 * sim.Microsecond)
		after := xs1.ReadTurboStats()
		pre, adopted := after.PreexecSlots-before.PreexecSlots, after.AdoptedSlots-before.AdoptedSlots
		t.Logf("%s: %d of %d pre-executed slots adopted", tc.name, adopted, pre)
		if pre == 0 || adopted*16 < pre*tc.least {
			t.Errorf("%s: %d of %d pre-executed slots adopted (%.4f), want at least %d/16",
				tc.name, adopted, pre, float64(adopted)/float64(max(pre, 1)), tc.least)
		}
	}
}

// TestTwinRunsMatchExact runs a slice loaded with two programs on
// alternating cores three ways at the test's own GOMAXPROCS (CI runs it at
// 1, 2 and 4): on the turbo path, where twins adopt, and on the exact
// pipeline and with a recorder attached, where no window is opened and
// nothing is adopted. Every run ends in the same machine state and kernel
// accounting, and every slot pre-executed has been replayed. The two twin
// classes have a representative window each, and one segment is long
// enough that the two are offered to the helper pool, so on more than one
// host thread one of them is computed on a helper while its twins wait for
// the join.
func TestTwinRunsMatchExact(t *testing.T) {
	run := func(env *Env) (state string, ts xs1.TurboStats) {
		m, release, err := env.Checkout(1, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		if err := loadAlternating(m, workload.HeavyLoad(4, 1<<20), workload.HeavyLoad(4, 1<<19)); err != nil {
			t.Fatal(err)
		}
		before := xs1.ReadTurboStats()
		for _, d := range []sim.Time{7 * cycle, 3 * sim.Microsecond, 1, 40 * sim.Microsecond, 13 * cycle} {
			m.RunFor(d)
		}
		after := xs1.ReadTurboStats()
		ts = xs1.TurboStats{
			PreexecSlots:  after.PreexecSlots - before.PreexecSlots,
			ReplayedSlots: after.ReplayedSlots - before.ReplayedSlots,
			AdoptedSlots:  after.AdoptedSlots - before.AdoptedSlots,
			Fanouts:       after.Fanouts - before.Fanouts,
		}
		return fmt.Sprintf("%s %s now=%d seq=%d fired=%d pending=%d",
			fingerprint(m), threadStates(m), m.K.Now(), m.K.Seq(), m.K.Fired(), m.K.Pending()), ts
	}
	exact, exactTS := run(&Env{Exact: true})
	turbo, turboTS := run(&Env{})
	traced, tracedTS := run(TracedEnv(trace.NewSession(0)))
	if turbo != exact {
		t.Errorf("turbo run of twins diverged from the exact run\nexact %s\nturbo %s", exact, turbo)
	}
	if traced != exact {
		t.Errorf("traced run of twins diverged from the exact run\n exact %s\ntraced %s", exact, traced)
	}
	if turboTS.AdoptedSlots == 0 || turboTS.PreexecSlots != turboTS.ReplayedSlots {
		t.Errorf("turbo run: %d slots adopted, %d pre-executed, %d replayed; want adopted above 0 and the others equal",
			turboTS.AdoptedSlots, turboTS.PreexecSlots, turboTS.ReplayedSlots)
	}
	if runtime.GOMAXPROCS(0) > 1 && turboTS.Fanouts == 0 {
		t.Errorf("no window was offered to the helper pool on %d host threads", runtime.GOMAXPROCS(0))
	}
	if exactTS.AdoptedSlots != 0 || tracedTS.AdoptedSlots != 0 {
		t.Errorf("%d slots adopted on the exact pipeline and %d with a recorder attached, want 0 and 0",
			exactTS.AdoptedSlots, tracedTS.AdoptedSlots)
	}
}

// TestTwinScaleBatches runs BenchmarkTwinScale's two machines once each
// and pins how many batches each takes. It counts, where the benchmark
// times, so it holds on any host; and since CI runs it at GOMAXPROCS 1, 2
// and 4, it also pins that the host threads computing windows never move
// a batch boundary.
func TestTwinScaleBatches(t *testing.T) {
	for _, tc := range []struct {
		w, h    int
		batches uint64
	}{{1, 1, 197}, {5, 6, 5886}} {
		m := MustNew(tc.w, tc.h, Options{})
		if err := m.LoadAll(workload.HeavyLoad(4, 20000)); err != nil {
			t.Fatal(err)
		}
		before := xs1.ReadTurboStats().Batches
		m.RunFor(550 * sim.Microsecond)
		if got := xs1.ReadTurboStats().Batches - before; got != tc.batches {
			t.Errorf("%dx%d: %d batches (%.2f a member), want %d", tc.w, tc.h, got, float64(got)/float64(m.CoreCount()), tc.batches)
		}
	}
}

// BenchmarkTwinScale runs HeavyLoad(4) on every core of a slice and of a
// 5x6 machine for 550 µs: one twin class of 16 and one of 480 members.
// The host cost per simulated instruction is what the membership adds on
// top of the one window each refill computes, and batches/member how
// often a batch ends, over the members; TestTwinScaleBatches pins the
// batch counts.
func BenchmarkTwinScale(b *testing.B) {
	for _, size := range []struct{ w, h int }{{1, 1}, {5, 6}} {
		b.Run(fmt.Sprintf("%dx%d", size.w, size.h), func(b *testing.B) {
			var instrs, batches uint64
			members := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := MustNew(size.w, size.h, Options{})
				if err := m.LoadAll(workload.HeavyLoad(4, 20000)); err != nil {
					b.Fatal(err)
				}
				members = m.CoreCount()
				before := xs1.ReadTurboStats().Batches
				b.StartTimer()
				m.RunFor(550 * sim.Microsecond)
				b.StopTimer()
				instrs += m.TotalInstrCount()
				batches += xs1.ReadTurboStats().Batches - before
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			b.ReportMetric(float64(batches)/float64(b.N*members), "batches/member")
		})
	}
}
