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
// slice loaded from one program, whose cores adopt all but a window or
// two of every refill (xs1 twin.go), runs without touching the heap.
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

// TestTwinRunsMatchExact runs a slice loaded from one program three ways
// at the test's own GOMAXPROCS (CI runs it at 1, 2 and 4): on the turbo
// path, where twins adopt, and on the exact pipeline and with a recorder
// attached, where no window is opened and nothing is adopted. Every run
// ends in the same machine state and kernel accounting, and every slot
// pre-executed has been replayed. One segment is long enough that the
// windows twins do not adopt are offered to the helper pool, so on more
// than one host thread a representative's window is computed on a helper
// while its twins wait for the join.
func TestTwinRunsMatchExact(t *testing.T) {
	run := func(env *Env) (state string, ts xs1.TurboStats) {
		m, release, err := env.Checkout(1, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		if err := m.LoadAll(workload.HeavyLoad(4, 1<<20)); err != nil {
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
