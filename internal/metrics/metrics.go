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
