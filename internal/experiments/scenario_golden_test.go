package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// TestCanonicalRendersMatchGolden holds each compiled canonical
// artifact, and the boot sweep, to the bytes the benchmark commits for
// it: rendered at the default config — serially and in parallel, pooled
// and fresh — its sha256 must be the one bench/golden/tables.json
// records, and its headline metrics, float bits and all, the ones
// testdata/headlines.json records. The specs are their artifacts' only
// implementation, so the committed hashes and headlines are the
// reference they answer to.
func TestCanonicalRendersMatchGolden(t *testing.T) {
	var tables map[string]string
	readBenchGolden(t, "tables.json", &tables)
	var headlines map[string]map[string]float64
	blob, err := os.ReadFile("testdata/headlines.json")
	if err == nil {
		err = json.Unmarshal(blob, &headlines)
	}
	if err != nil {
		t.Fatalf("testdata/headlines.json: %v", err)
	}
	modes := []mode{
		{"seq-pooled", core.Env{Pool: core.SharedPool(), Width: 1}},
		{"par-pooled", core.Env{Pool: core.SharedPool(), Width: 16}},
		{"seq-fresh", core.Env{Width: 1}},
		{"par-fresh", core.Env{Width: 16}},
	}
	for _, spec := range append(CanonicalScenarios(), BootSweepScenario()) {
		want, ok := tables[spec.Name]
		if !ok {
			t.Fatalf("bench/golden/tables.json has no hash for %q", spec.Name)
		}
		wantMetrics, ok := headlines[spec.Name]
		if !ok {
			t.Fatalf("testdata/headlines.json has no entry for %q", spec.Name)
		}
		a := harness.Lookup(spec.Name)
		if a == nil {
			t.Fatalf("scenario %q not registered", spec.Name)
		}
		for _, m := range modes {
			cfg := harness.DefaultConfig()
			cfg.Env = &m.env
			res, err := a.Run(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", spec.Name, m.name, err)
			}
			table := a.Render(res)
			sum := sha256.Sum256([]byte(table.String()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s (%s): render hashes to %s, bench/golden/tables.json has %s\n%s",
					spec.Name, m.name, got, want, table)
			}
			var got map[string]float64
			if a.Metrics != nil {
				got = a.Metrics(res)
			}
			if !maps.Equal(got, wantMetrics) {
				t.Errorf("%s (%s): headline metrics %v, testdata/headlines.json has %v",
					spec.Name, m.name, got, wantMetrics)
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
