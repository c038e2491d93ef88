package experiments

import (
	"fmt"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
)

// AblationRouting compares the adaptive policy against strict
// vertical-first ordering: mean path length and layer transitions over
// all node pairs of a 2x2-slice system.
type AblationRoutingResult struct {
	Policy          topo.RoutePolicy
	MeanPathLength  float64
	MeanTransitions float64
	MaxTransitions  int
}

// AblationRouting runs the route-policy ablation.
func AblationRouting() ([]AblationRoutingResult, error) {
	sys := topo.MustSystem(2, 2)
	nodes := sys.Nodes()
	var out []AblationRoutingResult
	for _, pol := range []topo.RoutePolicy{topo.PolicyAdaptive, topo.PolicyStrictVerticalFirst} {
		var res AblationRoutingResult
		res.Policy = pol
		pairs := 0
		for _, a := range nodes {
			for _, b := range nodes {
				if a == b {
					continue
				}
				hops, err := sys.Route(a, b, pol)
				if err != nil {
					return nil, err
				}
				res.MeanPathLength += float64(topo.PathLength(hops))
				tr := topo.LayerTransitions(hops)
				res.MeanTransitions += float64(tr)
				if tr > res.MaxTransitions {
					res.MaxTransitions = tr
				}
				pairs++
			}
		}
		res.MeanPathLength /= float64(pairs)
		res.MeanTransitions /= float64(pairs)
		out = append(out, res)
	}
	return out, nil
}

// RenderAblationRouting formats the route-policy ablation.
func RenderAblationRouting(res []AblationRoutingResult) *report.Table {
	t := report.NewTable("Ablation: route policy over all node pairs (2x2 slices)",
		"policy", "mean path length", "mean layer transitions", "max transitions")
	for _, r := range res {
		t.AddRow(r.Policy.String(),
			fmt.Sprintf("%.2f", r.MeanPathLength),
			fmt.Sprintf("%.2f", r.MeanTransitions),
			fmt.Sprintf("%d", r.MaxTransitions))
	}
	return t
}

// SystemScale is the Fig. 1 / Section III-A headline: the assembled
// machine's scale, throughput and power.
type SystemScale struct {
	Slices, Cores int
	PeakGIPS      float64
	// IdleWallW is measured; LoadedWallW extrapolates the measured
	// per-slice loaded figure.
	IdleWallW, LoadedWallW float64
	// PaperLoadedW is the published 134 W.
	PaperLoadedW float64
}

// Scale assembles the paper's 30-slice, 480-core machine and measures
// its power envelope (loading one slice and extrapolating, to keep the
// experiment fast; the slice measurement itself is simulated end to
// end).
func Scale(env *core.Env, iters int) (SystemScale, error) {
	var s SystemScale
	if iters < 0 || iters > harness.MaxIters {
		return s, fmt.Errorf("%w: fig1: iters %d outside 0-%d", harness.ErrBadConfig, iters, harness.MaxIters)
	}
	m, release, err := env.Checkout(5, 6, core.Options{})
	if err != nil {
		return s, err
	}
	defer release()
	s.Slices = m.Slices()
	s.Cores = m.CoreCount()
	s.PeakGIPS = m.PeakGIPS()
	s.PaperLoadedW = 134

	m.RunFor(300 * sim.Microsecond)
	idle := 0.0
	for i := 0; i < m.Slices(); i++ {
		idle += m.Board(i).SampleAll().TotalInputW()
	}
	s.IdleWallW = idle

	// Load slice 0 fully and measure its wall power.
	lm, releaseLoaded, err := env.Checkout(1, 1, core.Options{})
	if err != nil {
		return s, err
	}
	defer releaseLoaded()
	if err := lm.LoadAll(workload.HeavyLoad(4, iters)); err != nil {
		return s, err
	}
	lm.RunFor(50 * sim.Microsecond)
	lm.Board(0).SampleAll()
	lm.RunFor(500 * sim.Microsecond)
	perSlice := lm.Board(0).SampleAll().TotalInputW()
	s.LoadedWallW = perSlice * float64(s.Slices)
	return s, nil
}

// RenderScale formats the headline numbers.
func RenderScale(s SystemScale) *report.Table {
	t := report.NewTable("Fig. 1 / Section III-A: system scale",
		"metric", "paper", "simulated")
	t.AddRow("slices", "30", fmt.Sprintf("%d", s.Slices))
	t.AddRow("cores", "480", fmt.Sprintf("%d", s.Cores))
	t.AddRow("peak GIPS", "240", fmt.Sprintf("%.0f", s.PeakGIPS))
	t.AddRow("loaded wall power", "134 W", fmt.Sprintf("%.0f W", s.LoadedWallW))
	t.AddRow("idle wall power", "-", fmt.Sprintf("%.0f W", s.IdleWallW))
	return t
}
