package experiments

import (
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
)

// TestWarmStartMatchesColdGolden is the snapshot/restore determinism
// contract at the artifact level: for every registered artifact, a warm
// run (boot-mode scenarios restore a snapshotted boot prefix per sweep
// point) must render byte-identical to a cold Env's, in all four
// lifecycle modes — pooled and fresh builds, serial and parallel
// sweeps.
func TestWarmStartMatchesColdGolden(t *testing.T) {
	eachMode(t, lifecycles(false), func(t *testing.T, _ int, env core.Env) {
		warm := renderRegistry(t, env)
		env.Cold = true
		sameRegistry(t, "cold", renderRegistry(t, env), "warm", warm)
	})
	// Every park restores too, so the warm path shows where nothing is
	// parked: with no pool, the warm boot sweep restores its boot prefix
	// and the cold one restores nothing.
	restores := func(cold bool) uint64 {
		cfg := harness.QuickConfig()
		cfg.Env = &core.Env{Width: 1, Cold: cold}
		before := core.ReadSnapshotStats().Restores
		if _, err := harness.Lookup("boot-sweep").Table(cfg); err != nil {
			t.Fatal(err)
		}
		return core.ReadSnapshotStats().Restores - before
	}
	if warm, cold := restores(false), restores(true); warm == 0 || cold != 0 {
		t.Errorf("boot-sweep with no pool restored %d snapshots warm and %d cold, want some and none", warm, cold)
	}
}
