package experiments

import (
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/xs1"
)

// TestTurboMatchesSlowPathGolden is the fast-path determinism contract
// at the artifact level: for every registered artifact, a turbo run
// (predecoded instruction cache plus batched run-to-horizon issue) must
// render byte-identical to an exact Env's — the
// one-instruction-per-event loop — across every lifecycle mode that
// changes how machines are built and scheduled: pooled and fresh
// builds, serial and parallel sweeps, warm starts on and off.
func TestTurboMatchesSlowPathGolden(t *testing.T) {
	before := xs1.ReadTurboStats()
	eachMode(t, lifecycles(false, true), func(t *testing.T, _ int, env core.Env) {
		fast := renderRegistry(t, env)
		env.Exact = true
		sameRegistry(t, "exact", renderRegistry(t, env), "turbo", fast)
	})
	ts := xs1.ReadTurboStats()
	if ts.Batches == before.Batches {
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
// loop, and neither pre-executes nor replays a slot. It reads a delta
// of the process-wide counters, so it runs beside no other test.
func TestSingleCoreRenderNeverRunsAhead(t *testing.T) {
	before := xs1.ReadTurboStats()
	for _, name := range []string{"eq2", "fig4"} {
		if _, err := harness.Lookup(name).Table(quickConfig()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	after := xs1.ReadTurboStats()
	if after.Batches == before.Batches {
		t.Fatal("the renders recorded no turbo batches")
	}
	if after.PreexecSlots != before.PreexecSlots || after.ReplayedSlots != before.ReplayedSlots || after.RoundSlots != before.RoundSlots {
		t.Errorf("single-core renders ran ahead of the clock: pre-executed %d, replayed %d, by rounds %d; want 0, 0, 0",
			after.PreexecSlots-before.PreexecSlots, after.ReplayedSlots-before.ReplayedSlots, after.RoundSlots-before.RoundSlots)
	}
}

// TestFig2TwinsAdopt pins where twin classes pay: fig2 loads one program
// on every core of a slice, so at every refill one core computes a window
// and its fifteen twins adopt it — at least 15/16 of the slots pre-executed
// are adopted — and under an exact Env, which opens no window, nothing is.
// It reads deltas of the process-wide counters, so it runs beside no other
// test.
func TestFig2TwinsAdopt(t *testing.T) {
	for _, exact := range []bool{false, true} {
		cfg := quickConfig()
		cfg.Env = &core.Env{Exact: exact}
		before := xs1.ReadTurboStats()
		if _, err := harness.Lookup("fig2").Table(cfg); err != nil {
			t.Fatal(err)
		}
		after := xs1.ReadTurboStats()
		pre, adopted := after.PreexecSlots-before.PreexecSlots, after.AdoptedSlots-before.AdoptedSlots
		if exact && adopted != 0 {
			t.Errorf("fig2 on the exact pipeline adopted %d slots, want 0", adopted)
		}
		if !exact && (adopted == 0 || adopted*16 < pre*15) {
			t.Errorf("fig2 on the turbo path adopted %d of %d pre-executed slots, want at least 15/16", adopted, pre)
		}
	}
}
