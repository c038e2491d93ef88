// Package metrics provides the analytical quantities of Section V-D:
// the execution-to-communication (EC) ratio calculus, Eq. 2 throughput
// laws, and fitting helpers used to validate the linear power model.
package metrics

import (
	"fmt"
	"math"
)

// IPSCore is the aggregate instruction rate of one core (Eq. 2):
//
//	IPSc = f * min(4, Nt) / 4
//
// the per-thread rate IPSt = f / max(4, Nt) times the Nt threads.
func IPSCore(fHz float64, nt int) float64 {
	if nt < 1 {
		return 0
	}
	return fHz * math.Min(4, float64(nt)) / 4
}

// ExecutionBitRate converts an instruction rate to the paper's E
// metric: bits operated on per second, with 32-bit operands.
func ExecutionBitRate(ips float64) float64 { return ips * 32 }

// EC is the execution-to-communication ratio E/C; both in bit/s.
func EC(executionBps, commBps float64) float64 {
	if commBps == 0 {
		return math.Inf(1)
	}
	return executionBps / commBps
}

// Section V-D's published analysis points for Swallow at 500 MHz.
type ECAnalysis struct {
	Name    string
	EBps    float64
	CBps    float64
	Printed float64 // the ratio as printed in the paper
}

// SwallowECTable regenerates the Section V-D worked examples:
// a core with >= 4 threads executes 500 MIPS x 32 bit = 16 Gbit/s.
func SwallowECTable() []ECAnalysis {
	e := ExecutionBitRate(IPSCore(500e6, 4)) // 16 Gbit/s
	return []ECAnalysis{
		{"core-local", e, e, 1},
		{"package-internal (4 links)", e, 4 * 250e6, 16},
		{"external links (4 x 62.5M)", e, 4 * 62.5e6, 64},
		{"one external link, 4 threads", e, 62.5e6, 256},
		{"slice bisection (8 cores)", 8 * e, 4 * 62.5e6, 512},
	}
}

// LinearFit returns the least-squares slope and intercept of y on x,
// plus the coefficient of determination. It is used to verify that
// simulated power is linear in frequency (Eq. 1's form).
func LinearFit(x, y []float64) (slope, intercept, r2 float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0, fmt.Errorf("metrics: fit needs two equal-length series, got %d/%d", len(x), len(y))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, fmt.Errorf("metrics: degenerate x series")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range x {
		pred := slope*x[i] + intercept
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	if ssTot == 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/ssTot
	}
	return slope, intercept, r2, nil
}

// Summary holds basic statistics of a sample series.
type Summary struct {
	N              int
	Mean, Min, Max float64
	StdDev         float64
}

// Summarize computes summary statistics.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, v := range xs {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, v := range xs {
		varSum += (v - s.Mean) * (v - s.Mean)
	}
	s.StdDev = math.Sqrt(varSum / float64(len(xs)))
	return s
}
