package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// calibTolerance is how far the two sets' host-speed references may
// differ before no timing of the pair is trusted.
const calibTolerance = 0.10

// loadSet reads a result set written by -out.
func loadSet(path string) ([]record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []record
	if err := json.Unmarshal(blob, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// valuesOf collects one metric's values on one workload, from traced
// or untraced runs.
func valuesOf(set []record, workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, rec := range set {
		if v, ok := rec.Result.Metrics[metric]; ok && rec.Workload == workload && rec.Trace == traced {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// spread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles
// (n=4) gives them; 0 for fewer than two values.
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / median(s)
}

// compareSets applies the bounds to two result sets, A the baseline
// and B the candidate, and prints one row per workload and end-to-end
// metric. It returns the exit code: 1 when any metric is worse, any
// exact count differs or any run was incorrect, else 0.
func compareSets(w io.Writer, pathA, pathB string) int {
	a, errA := loadSet(pathA)
	b, errB := loadSet(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(w, "bench -compare: %v\n", err)
		return 1
	}
	return compareRecords(w, a, b)
}

func compareRecords(w io.Writer, a, b []record) int {
	code := 0
	for _, rec := range append(append([]record(nil), a...), b...) {
		if !rec.Result.Correct {
			fmt.Fprintf(w, "INCORRECT  %s seed %d: %d of %d ops failed\n", rec.Workload, rec.Seed, rec.Result.Failed, rec.Result.Attempted)
			code = 1
		}
	}
	for _, wl := range workloads {
		// A host that ran at a different speed for one set makes every
		// timing of the pair unresolved.
		calibA := median(valuesOf(a, wl.Name, "runtime.calib_ns", true))
		calibB := median(valuesOf(b, wl.Name, "runtime.calib_ns", true))
		drift := calibA > 0 && calibB > 0 && math.Abs(calibB/calibA-1) > calibTolerance
		for _, d := range endToEnd {
			va, vb := valuesOf(a, wl.Name, d.Name, false), valuesOf(b, wl.Name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// change is positive when B is worse.
			change := mb/ma - 1
			if d.Better == "higher" {
				change = ma/mb - 1
			}
			verdict := "same"
			switch {
			case drift:
				verdict = "unresolved (host speed differs)"
			case math.Max(spread(va), spread(vb)) > d.Bound && !allBetter(va, vb, d.Better):
				verdict = "unresolved (spread wider than bound)"
			case change > d.Bound:
				verdict = "WORSE"
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-10s %12.6g -> %-12.6g %+6.1f%%  bound %2.0f%%  spread %4.1f%% / %4.1f%%  n=%d/%d  %s\n",
				wl.Name, d.Name, ma, mb, 100*(mb/ma-1), 100*d.Bound, 100*spread(va), 100*spread(vb), len(va), len(vb), verdict)
		}
		// Exact counts are compared seed by seed.
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			for _, ra := range a {
				for _, rb := range b {
					if ra.Workload != wl.Name || rb.Workload != wl.Name || !ra.Trace || !rb.Trace || ra.Seed != rb.Seed {
						continue
					}
					if x, y := ra.Result.Metrics[d.Name].Value, rb.Result.Metrics[d.Name].Value; x != y {
						fmt.Fprintf(w, "%-15s %-22s seed %d: exact count differs: %v -> %v\n", wl.Name, d.Name, ra.Seed, x, y)
						code = 1
					}
				}
			}
		}
	}
	return code
}

// allBetter reports whether every run of B reads better than every
// run of A: then a wide spread does not hide the direction.
func allBetter(va, vb []float64, better string) bool {
	if better == "higher" {
		return slices.Min(vb) > slices.Max(va)
	}
	return slices.Max(vb) < slices.Min(va)
}
