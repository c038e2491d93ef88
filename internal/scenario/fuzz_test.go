package scenario_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// FuzzParse holds the spec front end to three properties on any bytes
// a client can POST: Parse never panics and refuses only with
// harness.ErrBadConfig (the service's 400); a spec it accepts re-parses
// from its canonical JSON to the same Hash (the identity the service
// files results under) and sweeps at most MaxPoints points; and Compile
// accepts every spec Parse accepts.
// The seeds are the spec files, the registry's own and the examples,
// each as committed and compacted to one line.
func FuzzParse(f *testing.F) {
	var files []string
	for _, dir := range []string{"../experiments/specs", "../../examples/scenarios"} {
		found, _ := filepath.Glob(filepath.Join(dir, "*.json"))
		if len(found) == 0 {
			f.Fatalf("no spec files in %s to seed from", dir)
		}
		files = append(files, found...)
	}
	for _, name := range files {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, blob); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(blob)
		f.Add(compact.Bytes())
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
