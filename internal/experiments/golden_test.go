package experiments

import (
	"fmt"
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
)

// TestRegistryComplete pins the registered artifact set and its
// canonical order: drivers iterate the registry, so a lost or
// reordered registration silently changes every driver's output.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4",
		"eq2", "latency", "goodput", "ec", "survey-ec", "placement",
		"ablation-routing", "ablation-links", "ablation-placement",
		"bridge", "boot", "boot-sweep", "energy", "adc",
	}
	got := harness.Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("artifact %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

// The full-registry goldens below hold every field of core.Env to its
// promise: whatever the Env, the same bytes. Each builds its mode
// matrix as Env values and renders the modes as parallel subtests —
// modes share nothing but the machine pool, which is meant to be
// shared. The top-level tests themselves stay serial, so those that
// close with a delta of the process-wide counters (xs1.ReadTurboStats,
// core.ReadSnapshotStats) read them with nothing else running.

// mode is one point of a golden's Env matrix.
type mode struct {
	name string
	env  core.Env
}

// lifecycles is the cross product of the lifecycle fields that change
// how machines are built and scheduled: from the shared pool or fresh,
// serial or parallel sweeps, and — where colds lists both — warm or
// cold starts.
func lifecycles(colds ...bool) []mode {
	var out []mode
	for _, pooled := range []bool{true, false} {
		for _, width := range []int{1, 8} {
			for _, cold := range colds {
				m := mode{
					name: fmt.Sprintf("pooled=%v,width=%d,cold=%v", pooled, width, cold),
					env:  core.Env{Width: width, Cold: cold},
				}
				if pooled {
					m.env.Pool = core.SharedPool()
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// eachMode runs fn under every mode at once — i is the mode's index —
// and returns when all have finished.
func eachMode(t *testing.T, modes []mode, fn func(t *testing.T, i int, env core.Env)) {
	t.Run("modes", func(t *testing.T) {
		for i, m := range modes {
			t.Run(m.name, func(t *testing.T) {
				t.Parallel()
				fn(t, i, m.env)
			})
		}
	})
}

// renderRegistry renders every registered artifact under env at the
// quick config, by name.
func renderRegistry(t *testing.T, env core.Env) map[string]string {
	t.Helper()
	cfg := harness.QuickConfig()
	cfg.Env = &env
	out := make(map[string]string)
	for _, a := range harness.Artifacts() {
		tbl, err := a.Table(cfg)
		if err != nil {
			t.Fatalf("%s under %+v: %v", a.Name, env, err)
		}
		out[a.Name] = tbl.String()
	}
	return out
}

// sameRegistry fails for every artifact whose two renders differ.
func sameRegistry(t *testing.T, wantLabel string, want map[string]string, gotLabel string, got map[string]string) {
	t.Helper()
	for _, a := range harness.Artifacts() {
		if got[a.Name] != want[a.Name] {
			t.Errorf("%s: %s output diverges from %s.\n--- %s ---\n%s\n--- %s ---\n%s",
				a.Name, gotLabel, wantLabel, wantLabel, want[a.Name], gotLabel, got[a.Name])
		}
	}
}

// TestParallelMatchesSerialGolden is the determinism contract of the
// parallel sweep engine: for every registered artifact, a run with
// sweeps fanned out across many goroutines must render byte-identical
// to a serial run. Each sweep point owns its kernel and machine, so
// parallelism is allowed to change wall-clock time and nothing else.
func TestParallelMatchesSerialGolden(t *testing.T) {
	var out [2]map[string]string
	eachMode(t, []mode{
		{"serial", core.Env{Pool: core.SharedPool(), Width: 1}},
		// More workers than any sweep has points, to maximise
		// interleaving.
		{"parallel", core.Env{Pool: core.SharedPool(), Width: 16}},
	}, func(t *testing.T, i int, env core.Env) {
		out[i] = renderRegistry(t, env)
	})
	sameRegistry(t, "serial", out[0], "parallel", out[1])
}
