package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(blob))
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCatalog: BENCHMARK.json declares exactly the
// workloads and metrics this program has, within the contract's limits.
func TestContractMatchesCatalog(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's charset or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if !reflect.DeepEqual(c.Paths, []string{"bench"}) || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", c.Paths, c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", n, len(workloads))
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, metrics.go %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []contractMetric, want []metricDecl, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d declared, %d implemented, limit %d", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			unique(m.Name)
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %+v", kind, i, m, d)
			}
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: unit %q better %q", kind, m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: bound %v, metrics.go %v, allowed (0, 0.25]", kind, m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, 16, true)
	check("per_layer", c.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

// tiny runs a workload as briefly as the engine allows: one set-up and
// two rounds cut to four ops each.
func tiny(t *testing.T, name string, seed int64, traced bool) record {
	t.Helper()
	t.Chdir(t.TempDir()) // a run writes under .bench_build in its directory
	rec, err := runWorkload(runOpts{name: name, seed: seed, trace: traced, setups: 1, roundOps: 4, report: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 8 {
		t.Fatalf("%s seed %d: correct=%v failed=%d attempted=%d", name, seed, rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
	}
	return rec
}

// reports checks that a run reported exactly the declared metrics.
func reports(t *testing.T, rec record, want []metricDecl) {
	t.Helper()
	if len(rec.Result.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", rec.Workload, len(rec.Result.Metrics), len(want))
	}
	for _, d := range want {
		if v, ok := rec.Result.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or in unit %q", rec.Workload, d.Name, v.Unit)
		}
	}
}

// TestWorkloadsPass: every workload completes a traced run with no
// failed op, reports exactly the per-layer metrics and writes its span
// file.
func TestWorkloadsPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			reports(t, tiny(t, w.Name, goldenSeed, true), perLayer)
			if _, err := os.Stat(buildDir + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestSeedChangesInputs: a second seed asks for something else and
// still passes the correctness checks; an untraced run reports exactly
// the end-to-end metrics, none of them 0.
func TestSeedChangesInputs(t *testing.T) {
	for _, warm := range []bool{false, true} {
		a, b := newServe(1, warm), newServe(2, warm)
		if reflect.DeepEqual(a.plans.get(0), b.plans.get(0)) {
			t.Errorf("serve warm=%v: seeds 1 and 2 generate the same first round", warm)
		}
		if !reflect.DeepEqual(a.plans.get(3), newServe(1, warm).plans.get(3)) {
			t.Errorf("serve warm=%v: one seed generates two different rounds 3", warm)
		}
	}
	if reflect.DeepEqual(newSimComm(1).plans.get(0), newSimComm(2).plans.get(0)) {
		t.Error("sim-comm: seeds 1 and 2 place the same streams")
	}
	for _, name := range []string{"sim-comm", "serve-cold"} {
		rec := tiny(t, name, 2, false)
		reports(t, rec, endToEnd)
		for _, d := range endToEnd {
			if rec.Result.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is not positive", name, d.Name)
			}
		}
	}
}

// TestExactCountsRepeat: two runs of one seed agree on every count
// declared exact, and -compare accepts the pair.
func TestExactCountsRepeat(t *testing.T) {
	a := tiny(t, "sim-compute", goldenSeed, true)
	b := tiny(t, "sim-compute", goldenSeed, true)
	for _, d := range perLayer {
		if d.Exact && a.Result.Metrics[d.Name] != b.Result.Metrics[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, a.Result.Metrics[d.Name], b.Result.Metrics[d.Name])
		}
	}
	if a.Result.Metrics["xs1.instrs"].Value == 0 {
		t.Error("xs1.instrs is 0 on sim-compute")
	}
	var out bytes.Buffer
	if code := compareRecords(&out, []record{a}, []record{b}); code != 0 {
		t.Errorf("-compare rejects two runs of one seed:\n%s", out.String())
	}
	b.Result.Metrics["xs1.instrs"] = value{Value: 1, Unit: "count"}
	if code := compareRecords(&out, []record{a}, []record{b}); code == 0 {
		t.Error("-compare accepts a changed exact count")
	}
}

// TestCompareVerdicts: worse beyond the bound fails, within it passes,
// and a spread wider than the bound is unresolved, not a pass or a fail.
func TestCompareVerdicts(t *testing.T) {
	set := func(p50s ...float64) []record {
		var out []record
		for i, v := range p50s {
			out = append(out, record{Workload: "sim-compute", Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]value{"op_ms_p50": {Value: v, Unit: "ms"}}}})
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []record
		code int
		want string
	}{
		{"within bound", set(10, 10.1, 9.9), set(10.5, 10.4, 10.6), 0, "same"},
		{"beyond bound", set(10, 10.1, 9.9), set(13, 13.1, 12.9), 1, "WORSE"},
		{"too noisy", set(6, 10, 15), set(7, 12, 17), 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareRecords(&out, c.a, c.b); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}
