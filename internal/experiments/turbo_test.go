package experiments

import (
	"fmt"
	"testing"

	"swallow/internal/harness"
	"swallow/internal/harness/sweep"
)

// TestTurboMatchesSlowPathGolden is the fast-path determinism contract
// at the artifact level: for every registered artifact, a run with
// turbo enabled (predecoded instruction cache plus batched
// run-to-horizon issue) must render byte-identical to a run with turbo
// off — the one-instruction-per-event loop — across every lifecycle
// mode that changes how machines are built and scheduled: pooled and
// fresh builds, serial and parallel sweeps, warm starts on and off.
func TestTurboMatchesSlowPathGolden(t *testing.T) {
	cfg := harness.QuickConfig()
	prevConc := sweep.Concurrency()
	defer sweep.SetConcurrency(prevConc)
	defer SetPooling(true)
	defer SetWarmStart(true)
	defer SetTurbo(true)

	runRegistry := func(label string) map[string]string {
		out := make(map[string]string)
		for _, a := range harness.Artifacts() {
			tbl, err := a.Table(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", a.Name, label, err)
			}
			out[a.Name] = tbl.String()
		}
		return out
	}

	// One slow-path reference per lifecycle mode, diffed against the
	// turbo run of the same mode.
	batches := TurboStats().Batches
	for _, pooled := range []bool{true, false} {
		for _, conc := range []int{1, 8} {
			for _, warm := range []bool{true, false} {
				SetPooling(pooled)
				sweep.SetConcurrency(conc)
				SetWarmStart(warm)
				mode := fmt.Sprintf("pooled=%v conc=%d warm=%v", pooled, conc, warm)

				SetTurbo(false)
				slow := runRegistry("turbo off, " + mode)
				SetTurbo(true)
				fast := runRegistry("turbo on, " + mode)

				for _, a := range harness.Artifacts() {
					if fast[a.Name] != slow[a.Name] {
						t.Errorf("%s (%s): turbo output diverges.\n--- turbo off ---\n%s\n--- turbo on ---\n%s",
							a.Name, mode, slow[a.Name], fast[a.Name])
					}
				}
			}
		}
	}
	ts := TurboStats()
	if ts.Batches == batches {
		t.Errorf("turbo passes recorded no batches (stats %+v)", ts)
	}
	// The ledger adds up: every batch ended for exactly one reason, the
	// registry's loaded slices ran ahead of the clock, and no slot run
	// ahead was left unaccounted for.
	var exits uint64
	for _, n := range ts.Exits {
		exits += n
	}
	if exits != ts.Batches {
		t.Errorf("batch exit reasons sum to %d, batches to %d (stats %+v)", exits, ts.Batches, ts)
	}
	if ts.PreexecSlots == 0 || ts.PreexecSlots != ts.ReplayedSlots {
		t.Errorf("pre-executed %d slots, replayed %d; want equal and non-zero", ts.PreexecSlots, ts.ReplayedSlots)
	}
	// Loaded slices keep one clock, so most of that replay is whole
	// turns of the group ring.
	if ts.RoundSlots == 0 || ts.RoundSlots > ts.ReplayedSlots {
		t.Errorf("%d slots retired by rounds of %d replayed; want above 0 and no more", ts.RoundSlots, ts.ReplayedSlots)
	}
}

// TestSingleCoreRenderNeverRunsAhead pins the other side of the ledger:
// a lone awake core has nobody to interleave with, runs the exact inner
// loop, and neither pre-executes nor replays a slot.
func TestSingleCoreRenderNeverRunsAhead(t *testing.T) {
	before := TurboStats()
	for _, name := range []string{"eq2", "fig4"} {
		if _, err := harness.Lookup(name).Table(harness.QuickConfig()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	after := TurboStats()
	if after.Batches == before.Batches {
		t.Fatal("the renders recorded no turbo batches")
	}
	if after.PreexecSlots != before.PreexecSlots || after.ReplayedSlots != before.ReplayedSlots || after.RoundSlots != before.RoundSlots {
		t.Errorf("single-core renders ran ahead of the clock: pre-executed %d, replayed %d, by rounds %d; want 0, 0, 0",
			after.PreexecSlots-before.PreexecSlots, after.ReplayedSlots-before.ReplayedSlots, after.RoundSlots-before.RoundSlots)
	}
}
