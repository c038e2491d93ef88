package experiments

import (
	"os"
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// TestScenarioMatchesHandWritten is the compiler-faithfulness golden:
// each canonical artifact that is now registered as a compiled
// scenario spec must render byte-identical to the hand-written
// reference runner it replaced — serially and in parallel, pooled and
// fresh. The references (LatenciesFor, GoodputSweep, ECRatios,
// AblationLinks, AblationPlacement) stay in this package precisely to
// anchor this test.
func TestScenarioMatchesHandWritten(t *testing.T) {
	references := map[string]func() (string, error){
		"latency": func() (string, error) {
			rows, err := LatenciesFor(nil, nil)
			if err != nil {
				return "", err
			}
			return RenderLatencies(rows).String(), nil
		},
		"goodput": func() (string, error) {
			points, err := GoodputSweep(nil, goodputPayloads)
			if err != nil {
				return "", err
			}
			return RenderGoodput(points).String(), nil
		},
		"ec": func() (string, error) {
			rows, err := ECRatios(nil)
			if err != nil {
				return "", err
			}
			return RenderEC(rows).String(), nil
		},
		"ablation-links": func() (string, error) {
			res, err := AblationLinks(nil)
			if err != nil {
				return "", err
			}
			return RenderAblationLinks(res).String(), nil
		},
		"ablation-placement": func() (string, error) {
			res, err := AblationPlacement(nil)
			if err != nil {
				return "", err
			}
			return RenderAblationPlacement(res).String(), nil
		},
	}

	for _, spec := range CanonicalScenarios() {
		refFn, ok := references[spec.Name]
		if !ok {
			t.Fatalf("no hand-written reference for scenario %q", spec.Name)
		}
		want, err := refFn()
		if err != nil {
			t.Fatalf("%s (reference): %v", spec.Name, err)
		}
		a := harness.Lookup(spec.Name)
		if a == nil {
			t.Fatalf("scenario %q not registered", spec.Name)
		}
		for _, mode := range []mode{
			{"seq-pooled", core.Env{Pool: core.SharedPool(), Width: 1}},
			{"par-pooled", core.Env{Pool: core.SharedPool(), Width: 16}},
			{"seq-fresh", core.Env{Width: 1}},
			{"par-fresh", core.Env{Width: 16}},
		} {
			cfg := harness.QuickConfig()
			cfg.Env = &mode.env
			table, err := a.Table(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", spec.Name, mode.name, err)
			}
			if got := table.String(); got != want {
				t.Errorf("%s (%s): compiled scenario diverges from hand-written reference.\n--- compiled ---\n%s--- reference ---\n%s",
					spec.Name, mode.name, got, want)
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
	if a := harness.Lookup("ec"); a.Uses != 0 {
		t.Error("compiled ec claims config knobs it ignores")
	}
}

// TestExampleSpecMatchesCanonical pins examples/scenarios/goodput.json
// to the canonical goodput spec: CI diffs the file's render against
// the registry's, and that diff is only meaningful while the two
// share one content hash.
func TestExampleSpecMatchesCanonical(t *testing.T) {
	blob, err := os.ReadFile("../../examples/scenarios/goodput.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.Hash(), GoodputScenario().Hash(); got != want {
		t.Fatalf("example spec hash %s != canonical %s; regenerate the example from GoodputScenario()", got, want)
	}
}
