package scenario_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"swallow/internal/experiments"
	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// FuzzParse holds the spec front end to three properties on any bytes
// a client can POST: Parse never panics and refuses only with
// harness.ErrBadConfig (the service's 400); a spec it accepts re-parses
// from its canonical JSON to the same Hash (the identity the service
// files results under) and sweeps at most MaxPoints points; and Compile
// accepts every spec Parse accepts.
// The seeds are the example specs and the registry's canonical ones.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs to seed from: %v", err)
	}
	for _, name := range files {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, s := range experiments.CanonicalScenarios() {
		blob, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Parse(data)
		if err != nil {
			if !errors.Is(err, harness.ErrBadConfig) {
				t.Fatalf("refused with %v, not a harness.ErrBadConfig", err)
			}
			return
		}
		blob, err := json.Marshal(s.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		again, err := scenario.Parse(blob)
		if err != nil {
			t.Fatalf("canonical JSON of an accepted spec does not re-parse: %v\n%s", err, blob)
		}
		if again.Hash() != s.Hash() {
			t.Fatalf("hash moved over the canonical round trip: %s -> %s\n%s", s.Hash(), again.Hash(), blob)
		}
		// The point bound holds on the true cross product, not on one a
		// hostile grid wrapped past 2^64.
		points := 1.0
		for _, ax := range s.Sweep {
			points *= float64(len(ax.Ints) + len(ax.Floats) + len(ax.Variants))
		}
		if points > scenario.MaxPoints {
			t.Fatalf("accepted a sweep of %g points, past the %d bound", points, scenario.MaxPoints)
		}
		if _, err := scenario.Compile(s); err != nil {
			t.Fatalf("Parse accepted what Compile refuses: %v\n%s", err, blob)
		}
	})
}
