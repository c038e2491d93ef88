package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/scenario"
)

// goArtifacts are the registry's artifacts written in Go; every other
// one is compiled from its spec file.
var goArtifacts = []string{"table2", "table3", "fig1", "survey-ec", "ablation-routing", "energy"}

// compiledNames lists the registry's compiled artifacts in registration
// order.
func compiledNames() []string {
	return slices.DeleteFunc(harness.Names(), func(name string) bool { return slices.Contains(goArtifacts, name) })
}

// TestCanonicalRendersMatchGolden holds each compiled artifact to the
// bytes the benchmark commits for it: rendered at the default config —
// serially and in parallel, pooled and fresh — its sha256 must be the
// one bench/golden/tables.json records, and its headline metrics,
// float bits and all, the ones testdata/headlines.json records. The
// spec files are their artifacts' only implementation, so the committed
// hashes and headlines are the reference they answer to.
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
	for _, name := range compiledNames() {
		want, ok := tables[name]
		if !ok {
			t.Fatalf("bench/golden/tables.json has no hash for %q", name)
		}
		wantMetrics, ok := headlines[name]
		if !ok {
			t.Fatalf("testdata/headlines.json has no entry for %q", name)
		}
		a := harness.Lookup(name)
		if a == nil {
			t.Fatalf("scenario %q not registered", name)
		}
		for _, m := range modes {
			cfg := harness.DefaultConfig()
			cfg.Env = &m.env
			res, err := a.Run(cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", name, m.name, err)
			}
			table := a.Render(res)
			sum := sha256.Sum256([]byte(table.String()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s (%s): render hashes to %s, bench/golden/tables.json has %s\n%s",
					name, m.name, got, want, table)
			}
			var got map[string]float64
			if a.Metrics != nil {
				got = a.Metrics(res)
			}
			if !maps.Equal(got, wantMetrics) {
				t.Errorf("%s (%s): headline metrics %v, testdata/headlines.json has %v",
					name, m.name, got, wantMetrics)
			}
		}
	}
}

// TestSpecFilesAreTheRegistry ties the spec files to the registry: the
// files under specs/ are exactly the compiled artifacts, each named for
// its file, each byte for byte the form Parse normalises it to (so a
// hand edit cannot differ silently from what runs), and each compiled
// under its own content hash, the identity a POST of the file is filed
// under.
func TestSpecFilesAreTheRegistry(t *testing.T) {
	entries, err := specFiles.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		names = append(names, name)
		blob, err := specFiles.ReadFile("specs/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Parse(blob)
		if err != nil {
			t.Fatalf("specs/%s: %v", e.Name(), err)
		}
		if s.Name != name {
			t.Errorf("specs/%s names its spec %q", e.Name(), s.Name)
		}
		canonical, err := json.MarshalIndent(s.Canonical(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, append(canonical, '\n')) {
			t.Errorf("specs/%s is not in its canonical form; rewrite it as\n%s", e.Name(), canonical)
		}
		c, err := scenario.Compile(spec(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Hash != s.Hash() {
			t.Errorf("%s: compile hash %s != file hash %s", name, c.Hash, s.Hash())
		}
		if a := harness.Lookup(name); a == nil || a.Description != s.Description {
			t.Errorf("%s: registered as %+v, not from its file", name, a)
		}
	}
	slices.Sort(names)
	if want := slices.Sorted(slices.Values(compiledNames())); !slices.Equal(names, want) {
		t.Errorf("spec files %v, compiled artifacts %v", names, want)
	}
}

// TestCompiledKnobs checks the compiled registrations declare the right
// config knobs.
func TestCompiledKnobs(t *testing.T) {
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
