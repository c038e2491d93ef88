package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// TestCanonicalRendersMatchGolden holds each compiled canonical
// artifact to the bytes the benchmark commits for it: rendered at the
// default config — serially and in parallel, pooled and fresh — its
// sha256 must be the one bench/golden/tables.json records. The specs
// are their artifacts' only implementation, so the committed hashes
// are the reference they answer to.
func TestCanonicalRendersMatchGolden(t *testing.T) {
	var tables map[string]string
	readBenchGolden(t, "tables.json", &tables)
	modes := []mode{
		{"seq-pooled", core.Env{Pool: core.SharedPool(), Width: 1}},
		{"par-pooled", core.Env{Pool: core.SharedPool(), Width: 16}},
		{"seq-fresh", core.Env{Width: 1}},
		{"par-fresh", core.Env{Width: 16}},
	}
	for _, spec := range CanonicalScenarios() {
		want, ok := tables[spec.Name]
		if !ok {
			t.Fatalf("bench/golden/tables.json has no hash for %q", spec.Name)
		}
		a := harness.Lookup(spec.Name)
		if a == nil {
			t.Fatalf("scenario %q not registered", spec.Name)
		}
		for _, m := range modes {
			cfg := harness.DefaultConfig()
			cfg.Env = &m.env
			table, err := a.Table(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", spec.Name, m.name, err)
			}
			sum := sha256.Sum256([]byte(table.String()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s (%s): render hashes to %s, bench/golden/tables.json has %s\n%s",
					spec.Name, m.name, got, want, table)
			}
		}
	}
}

// TestCanonicalScenarioHashesStable pins the canonical specs' content
// identity across the JSON round trip the service relies on, and
// checks the compiled registrations declare the right config knobs.
func TestCanonicalScenarioHashesStable(t *testing.T) {
	for _, spec := range CanonicalScenarios() {
		c, err := scenario.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if c.Hash != spec.Hash() {
			t.Errorf("%s: compile hash %s != spec hash %s", spec.Name, c.Hash, spec.Hash())
		}
	}
	if a := harness.Lookup("goodput"); a.Uses&harness.UsesGoodputPayloads == 0 {
		t.Error("compiled goodput does not declare the payload knob")
	}
	if a := harness.Lookup("latency"); a.Uses&harness.UsesLatencyPlacements == 0 {
		t.Error("compiled latency does not declare the placement knob")
	}
	// The instruments fix their own loads: no knob, not even iters.
	for _, name := range []string{"ec", "placement", "table1", "adc", "bridge", "boot"} {
		if a := harness.Lookup(name); a.Uses != 0 {
			t.Errorf("compiled %s claims config knobs it ignores", name)
		}
	}
	for _, name := range []string{"fig2", "fig3", "fig4", "eq2"} {
		if a := harness.Lookup(name); a.Uses != harness.UsesIters {
			t.Errorf("compiled %s declares knobs %b, want UsesIters alone", name, a.Uses)
		}
	}
}

// TestExampleSpecMatchesCanonical pins each canonical spec serialised
// under examples/scenarios to the registry's: the files' renders speak
// for the registry's artifacts (TestTrafficRendersPinned holds
// goodput.json's to the goodput hash of bench/golden/tables.json) only
// while each shares its artifact's content hash.
func TestExampleSpecMatchesCanonical(t *testing.T) {
	for _, want := range []scenario.Spec{GoodputScenario(), Fig2Scenario(), Fig3Scenario(), TableIScenario()} {
		blob, err := os.ReadFile("../../examples/scenarios/" + want.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Hash(); got != want.Hash() {
			t.Errorf("examples/scenarios/%s.json hashes to %s, the canonical spec to %s; regenerate the example from it",
				want.Name, got, want.Hash())
		}
	}
}
