package experiments

import (
	"testing"

	"swallow/internal/core"
)

// TestWarmStartMatchesColdGolden is the snapshot/restore determinism
// contract at the artifact level: for every registered artifact, a warm
// run (pooled machines rewind from a pristine snapshot; boot-mode
// scenarios restore a snapshotted boot prefix per sweep point) must
// render byte-identical to a cold Env's, in all four lifecycle modes —
// pooled and fresh builds, serial and parallel sweeps.
func TestWarmStartMatchesColdGolden(t *testing.T) {
	restores := core.ReadSnapshotStats().Restores
	eachMode(t, lifecycles(false), func(t *testing.T, _ int, env core.Env) {
		warm := renderRegistry(t, env)
		env.Cold = true
		sameRegistry(t, "cold", renderRegistry(t, env), "warm", warm)
	})
	if st := core.ReadSnapshotStats(); st.Restores == restores {
		t.Errorf("warm passes recorded no snapshot restores (stats %+v)", st)
	}
}
