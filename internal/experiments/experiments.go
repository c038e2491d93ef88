// Package experiments regenerates every table and figure of the paper
// from the simulator and files each once with the harness registry
// (registry.go). Most are compiled scenario specs (scenarios.go); the
// rest are the Go runners here, each returning structured results that
// carry the published value beside the measured one and rendering them
// as a report table. cmd/swallow-tables, the service and bench/ drive
// the registry.
package experiments

import (
	"fmt"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/noc"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
)

// TableIRow is one link class of Table I, published and measured.
type TableIRow struct {
	Class energy.LinkClass
	// Published columns.
	RateMbps, MaxPowerMW, PJPerBit float64
	// Measured from a saturating stream over the simulated link:
	// MeasuredPowerMW is the link's energy over its wire-busy time (the
	// saturated power the max-power column states), and Utilization the
	// busy share of the flow's own window, start to last arrival.
	MeasuredPJPerBit, MeasuredPowerMW, Utilization float64
}

// TableI saturates one link of each physical class and measures
// energy-per-bit and link power.
func TableI(env *core.Env) ([]TableIRow, error) {
	m, release, err := env.Checkout(2, 1, core.Options{})
	if err != nil {
		return nil, err
	}
	defer release()
	k, net := m.K, m.Net
	type route struct {
		src, dst topo.NodeID
	}
	routes := map[energy.LinkClass]route{
		energy.LinkOnChip:          {topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 0, topo.LayerH)},
		energy.LinkBoardVertical:   {topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 1, topo.LayerV)},
		energy.LinkBoardHorizontal: {topo.MakeNodeID(0, 0, topo.LayerH), topo.MakeNodeID(1, 0, topo.LayerH)},
		energy.LinkOffBoard:        {topo.MakeNodeID(1, 0, topo.LayerH), topo.MakeNodeID(2, 0, topo.LayerH)},
	}
	var rows []TableIRow
	for class := energy.LinkClass(0); int(class) < energy.NumLinkClasses; class++ {
		r := routes[class]
		before := net.StatsByClass()[class]
		f := &workload.Flow{
			Src:    net.Switch(r.src).ChanEnd(0),
			Dst:    net.Switch(r.dst).ChanEnd(0),
			Tokens: 4096,
		}
		t0 := k.Now()
		if err := workload.RunFlows(k, []*workload.Flow{f}, sim.Second); err != nil {
			return nil, fmt.Errorf("table I %v: %w", class, err)
		}
		after := net.StatsByClass()[class]
		var delta noc.LinkStats
		delta.Add(after)
		delta.Tokens -= before.Tokens
		delta.Bits -= before.Bits
		delta.EnergyJ -= before.EnergyJ
		delta.Busy -= before.Busy
		spec := energy.LinkSpecs[class]
		rows = append(rows, TableIRow{
			Class:            class,
			RateMbps:         spec.DataRateBitsPerSec / 1e6,
			MaxPowerMW:       spec.MaxPowerW * 1e3,
			PJPerBit:         spec.EnergyPerBit() * 1e12,
			MeasuredPJPerBit: delta.EnergyPerBit() * 1e12,
			MeasuredPowerMW:  delta.MeanPowerW(delta.Busy) * 1e3,
			Utilization:      delta.Utilization(f.LastArrival - t0),
		})
	}
	return rows, nil
}

// RenderTableI formats the rows.
func RenderTableI(rows []TableIRow) *report.Table {
	t := report.NewTable("Table I: per-bit energies of Swallow links",
		"link type", "data rate", "max power", "pJ/bit (paper)", "pJ/bit (sim)", "mW (sim)")
	for _, r := range rows {
		t.AddRow(r.Class.String(),
			report.FormatSI(r.RateMbps*1e6)+"bit/s",
			fmt.Sprintf("%.1f mW", r.MaxPowerMW),
			fmt.Sprintf("%.1f", r.PJPerBit),
			fmt.Sprintf("%.1f", r.MeasuredPJPerBit),
			fmt.Sprintf("%.1f", r.MeasuredPowerMW))
	}
	return t
}
