package experiments

// The compiled artifacts' specs: Table I, the load figures (Fig. 2-4,
// Eq. 2), the goodput, latency, EC-regime, placement and ablation
// artifacts, the instruments (the Ethernet bridge, the nOS network boot
// and the ADC board) and the boot sweep, one JSON file each under
// specs/, embedded in the binary and compiled into the registry by
// registerScenario at their canonical listing positions. Each file is
// the only implementation of its artifact and is byte for byte a spec
// that swallow-tables -scenario and POST /scenarios accept: the paper
// checks run on what the registry serves, and
// TestCanonicalRendersMatchGolden holds every render to the sha256
// committed in bench/golden/tables.json.

import (
	"embed"
	"fmt"
	"slices"
	"strings"

	"swallow/internal/harness"
	"swallow/internal/scenario"
)

//go:embed specs/*.json
var specFiles embed.FS

// spec reads and parses the spec file specs/<name>.json. The files are
// compiled in, so an error is a broken build and panics.
func spec(name string) scenario.Spec {
	var s scenario.Spec
	blob, err := specFiles.ReadFile("specs/" + name + ".json")
	if err == nil {
		s, err = scenario.Parse(blob)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: spec %q: %v", name, err))
	}
	return s
}

// registerScenario compiles the named spec files into the registry, in
// order, each with its benchmark headline quantities; it is called from
// the registry init in canonical listing order. The headline
// declarations stay here, not in the files, so the headline names
// outlive any change to the specs.
func registerScenario(names ...string) {
	for _, name := range names {
		var metrics func(*scenario.Result) map[string]float64
		if hs := headlines[name]; hs != nil {
			metrics = func(res *scenario.Result) map[string]float64 { return headlineMetrics(res, hs) }
		}
		scenario.MustRegister(spec(name), metrics)
	}
}

// A headline declares one benchmark quantity of a compiled artifact:
// column col of every row that has it — or of the points labelled in
// at, when at is set — scaled by 10^exp and named name, with the row's
// label (or, when key is set, the cell of its key column) in place of
// a "*" in name.
type headline struct {
	name, col string
	at        []string
	key       string
	exp       int
}

// headlineMetrics reads the headlines from a result.
func headlineMetrics(res *scenario.Result, hs []headline) map[string]float64 {
	m := make(map[string]float64)
	for _, h := range hs {
		for _, p := range slices.Concat(res.Points, res.Extra) {
			c, ok := p.Col(h.col)
			if !ok || h.at != nil && !slices.Contains(h.at, p.Label) {
				continue
			}
			key := p.Label
			if k, ok := p.Col(h.key); ok {
				key = k.Cell()
			}
			m[harness.MetricName(strings.Replace(h.name, "*", key, 1))] = scenario.Scale(c.Value, h.exp)
		}
	}
	return m
}

// headlines declares each compiled artifact's headline metrics. Every
// column holds SI units but latency's nanoseconds; exp scales it to the
// metric's.
var headlines = map[string][]headline{
	"table1": {{name: "*_pJ/bit", col: "bit_energy", key: "class", exp: 12}},
	"fig2":   {{name: "node_mW", col: "node", exp: 3}, {name: "compute_mW", col: "compute", exp: 3}},
	"fig3": {
		{name: "slope_mW/MHz", col: "slope"}, {name: "intercept_mW", col: "intercept"}, {name: "r2", col: "r2"},
	},
	"fig4":    {{name: "dvfs_500MHz_mW", col: "model_dvfs_power", at: []string{"500 MHz"}, exp: 3}},
	"eq2":     {{name: "MIPS_nt*", col: "ips", at: []string{"1", "4", "8"}, exp: -6}},
	"latency": {{name: "*_ns", col: "ns"}},
	"goodput": {{name: "goodput_28B_%", col: "fraction", at: []string{"28"}, exp: 2}},
	"ec": {
		{name: "bisection_EC", col: "ec", at: []string{"slice bisection (8 cores)"}},
		{name: "bisection_Mbit/s", col: "c", at: []string{"slice bisection (8 cores)"}, exp: -6},
	},
	"placement":          {{name: "*_nJ/item", col: "item_energy", exp: 9}, {name: "*_us", col: "elapsed", exp: 6}},
	"ablation-links":     {{name: "links*_Mbit/s", col: "goodput", exp: -6}},
	"ablation-placement": {{name: "*_Mbit/s", col: "goodput", exp: -6}},
	"bridge":             {{name: "bridge_Mbit/s", col: "goodput", exp: -6}},
	"boot":               {{name: "image_bytes", col: "image_bytes"}, {name: "boot_us", col: "elapsed", exp: 6}},
	"boot-sweep":         {{name: "*_nJ/item", col: "item_energy", exp: 9}},
}
