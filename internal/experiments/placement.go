package experiments

import (
	"fmt"

	"swallow/internal/core"
	"swallow/internal/harness/sweep"
	"swallow/internal/noc"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
)

// PlacementEnergyResult compares one pipeline placement.
type PlacementEnergyResult struct {
	Name string
	// Items is the workload size.
	Items int
	// Elapsed is end-to-end completion time.
	Elapsed sim.Time
	// CoreEnergyJ and LinkEnergyJ split the bill.
	CoreEnergyJ, LinkEnergyJ float64
	// EnergyPerItemJ is total pipeline energy per item.
	EnergyPerItemJ float64
}

// PipelinePlacement runs the same five-stage pipeline in two
// placements - chip-local (stages walk one column, every hop short)
// and scattered (stages in opposite corners of a 2x2-slice machine,
// every hop crossing boards) - and measures the energy and time cost
// of ignoring the paper's locality recommendations (Section V-D).
func PipelinePlacement(env *core.Env, items int) ([]PlacementEnergyResult, error) {
	local := []topo.NodeID{
		topo.MakeNodeID(0, 0, topo.LayerV),
		topo.MakeNodeID(0, 0, topo.LayerH),
		topo.MakeNodeID(0, 1, topo.LayerV),
		topo.MakeNodeID(0, 1, topo.LayerH),
		topo.MakeNodeID(0, 2, topo.LayerV),
	}
	scattered := []topo.NodeID{
		topo.MakeNodeID(0, 0, topo.LayerV),
		topo.MakeNodeID(3, 7, topo.LayerH),
		topo.MakeNodeID(0, 7, topo.LayerV),
		topo.MakeNodeID(3, 0, topo.LayerH),
		topo.MakeNodeID(1, 4, topo.LayerV),
	}
	type pipelineVariant struct {
		name  string
		nodes []topo.NodeID
	}
	variants := []pipelineVariant{{"chip-local", local}, {"scattered", scattered}}
	return sweep.Map(env.SweepWidth(), variants, func(_ int, pl pipelineVariant) (PlacementEnergyResult, error) {
		return runPipeline(env, pl.name, pl.nodes, items)
	})
}

func runPipeline(env *core.Env, name string, nodes []topo.NodeID, items int) (PlacementEnergyResult, error) {
	var res PlacementEnergyResult
	res.Name = name
	res.Items = items
	m, release, err := env.Checkout(2, 2, core.Options{})
	if err != nil {
		return res, err
	}
	defer release()
	chan0 := func(n topo.NodeID) noc.ChanEndID { return noc.MakeChanEndID(uint16(n), 0) }
	// nodes = source, stage1..3, sink.
	if err := m.Load(nodes[4], workload.PipelineSink(items)); err != nil {
		return res, err
	}
	for i := 3; i >= 1; i-- {
		if err := m.Load(nodes[i], workload.PipelineStage(chan0(nodes[i+1]), items, 1)); err != nil {
			return res, err
		}
	}
	if err := m.Load(nodes[0], workload.PipelineSource(chan0(nodes[1]), items)); err != nil {
		return res, err
	}
	if err := m.Run(2 * sim.Second); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	// Verify the pipeline computed the right sum before billing it.
	want := uint32(items*(items-1)/2 + 3*items)
	trace := m.Core(nodes[4]).DebugTrace
	if len(trace) != 1 || trace[0] != want {
		return res, fmt.Errorf("%s: sink sum %v, want %d", name, trace, want)
	}
	// End-to-end time: the last instruction issued anywhere in the
	// pipeline (Run polls on a coarse grid, so m.K.Now() overshoots).
	for _, n := range nodes {
		if t := m.Core(n).LastIssue; t > res.Elapsed {
			res.Elapsed = t
		}
	}
	for _, n := range nodes {
		res.CoreEnergyJ += m.Core(n).DynamicEnergyJ()
	}
	res.LinkEnergyJ = m.Net.TotalLinkEnergyJ()
	res.EnergyPerItemJ = (res.CoreEnergyJ + res.LinkEnergyJ) / float64(items)
	return res, nil
}

// RenderPlacement formats the comparison.
func RenderPlacement(rows []PlacementEnergyResult) *report.Table {
	t := report.NewTable("Placement ablation: five-stage pipeline, identical work",
		"placement", "items", "elapsed", "core dynamic J", "link J", "J/item")
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Items),
			r.Elapsed.String(),
			fmt.Sprintf("%.3g", r.CoreEnergyJ),
			fmt.Sprintf("%.3g", r.LinkEnergyJ),
			fmt.Sprintf("%.3g", r.EnergyPerItemJ))
	}
	return t
}
