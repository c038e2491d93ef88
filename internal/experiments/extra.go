package experiments

import (
	"fmt"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/nos"
	"swallow/internal/power"
	"swallow/internal/report"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// EnergyCompare is the Section II comparison of per-bit compute
// energy (ALU lower bound to divide upper bound, at 400 MHz) against
// per-bit on-chip link energy — the ratio that motivates
// energy-transparent communication.
type EnergyCompare struct {
	ComputeLoPJ, ComputeHiPJ, OnChipLinkPJ float64
}

// ComputeVsComm derives the comparison from the calibrated models.
func ComputeVsComm() EnergyCompare {
	lo := energy.PerBitComputeEnergy(energy.InstrEnergyTotal(energy.ClassALU, 400, 1))
	hi := energy.PerBitComputeEnergy(energy.InstrEnergyTotal(energy.ClassDiv, 400, 1))
	link := energy.LinkEnergyPerBit(energy.LinkOnChip)
	return EnergyCompare{
		ComputeLoPJ:  lo * 1e12,
		ComputeHiPJ:  hi * 1e12,
		OnChipLinkPJ: link * 1e12,
	}
}

// RenderEnergyCompare formats the comparison.
func RenderEnergyCompare(e EnergyCompare) *report.Table {
	t := report.NewTable("Section II: per-bit compute vs communication energy",
		"quantity", "pJ/bit")
	t.AddRow("compute, ALU class (lower bound)", fmt.Sprintf("%.2f", e.ComputeLoPJ))
	t.AddRow("compute, divide class (upper bound)", fmt.Sprintf("%.2f", e.ComputeHiPJ))
	t.AddRow("on-chip link", fmt.Sprintf("%.2f", e.OnChipLinkPJ))
	return t
}

// MeasurementRates exercises the ADC daughter-board at the Section II
// limits: 2 MS/s on a single supply, 1 MS/s across all five, and
// verifies the reconstructed power against the machine's energy
// accounting.
func MeasurementRates(env *core.Env) error {
	m, release, err := env.Checkout(1, 1, core.Options{})
	if err != nil {
		return err
	}
	defer release()
	if err := m.LoadAll(workload.HeavyLoad(4, 40000)); err != nil {
		return err
	}
	// All five channels at 1 MS/s.
	board := m.Board(0)
	m.RunFor(20 * sim.Microsecond)
	board.SampleAll()
	trAll, err := board.StartTrace(power.MaxAllChannelHz, 200)
	if err != nil {
		return err
	}
	m.RunFor(250 * sim.Microsecond)
	if len(trAll.Samples) != 200 {
		return fmt.Errorf("all-channel trace collected %d samples", len(trAll.Samples))
	}
	mean := trAll.MeanInputW()
	if mean < 3.5 || mean > 5.2 {
		return fmt.Errorf("loaded slice wall = %.2f W via ADC, want ~4.5", mean)
	}
	// Single channel at 2 MS/s.
	single, err := power.NewBoard(m.K, m.Supplies(0)[:1])
	if err != nil {
		return err
	}
	trOne, err := single.StartTrace(power.MaxSingleChannelHz, 200)
	if err != nil {
		return err
	}
	m.RunFor(150 * sim.Microsecond)
	if len(trOne.Samples) != 200 {
		return fmt.Errorf("single-channel trace collected %d samples", len(trOne.Samples))
	}
	// Over-rate requests must fail.
	if _, err := board.StartTrace(power.MaxAllChannelHz*1.5, 4); err == nil {
		return fmt.Errorf("over-rate multi-channel trace accepted")
	}
	return nil
}

// BridgeRate measures the Ethernet bridge's achieved ingress rate
// against its 80 Mbit/s cap.
func BridgeRate(env *core.Env) (float64, error) {
	m, release, err := env.Checkout(1, 1, core.Options{})
	if err != nil {
		return 0, err
	}
	defer release()
	k, net := m.K, m.Net
	// Bridges belong to their machine: a pooled checkout revives the
	// built bridge instead of constructing a new one.
	br, err := m.Bridge(topo.MakeNodeID(0, 3, topo.LayerV))
	if err != nil {
		return 0, err
	}
	// A channel end on the bridge's own core: delivery is switch-local,
	// so the 80 Mbit/s Ethernet pacing is the binding constraint rather
	// than a 62.5 Mbit/s board link.
	dst := net.Switch(topo.MakeNodeID(0, 3, topo.LayerV)).ChanEnd(1)
	drain := func() {
		for {
			if _, ok := dst.TryIn(); !ok {
				return
			}
		}
	}
	dst.SetWake(drain)
	const bytes = 40000
	start := k.Now()
	br.Send(dst.ID(), make([]byte, bytes))
	for i := 0; i < 10000 && br.Pending() > 0; i++ {
		k.RunFor(100 * sim.Microsecond)
	}
	if br.Pending() > 0 {
		return 0, fmt.Errorf("bridge did not drain")
	}
	elapsed := (k.Now() - start).Seconds()
	return float64(bytes) * 8 / elapsed, nil
}

// RenderBridgeRate formats the Ethernet bridge ingress measurement.
func RenderBridgeRate(rate float64) *report.Table {
	t := report.NewTable("Ethernet bridge ingress rate",
		"cap", "measured")
	t.AddRow("80Mbit/s", report.FormatSI(rate)+"bit/s")
	return t
}

// RenderBootCost formats the nOS network-boot measurement.
func RenderBootCost(st nos.BootStats) *report.Table {
	t := report.NewTable("nOS network boot (4-core job over the bridge)",
		"image bytes", "boot time")
	t.AddRow(fmt.Sprintf("%d", st.ImageBytes), st.Elapsed.String())
	return t
}

// RenderMeasurementRates formats the ADC rate-limit verification,
// which is a pass/fail exercise of the Section II sampling limits.
func RenderMeasurementRates() *report.Table {
	t := report.NewTable("ADC daughter-board rate limits (Section II)",
		"check", "result")
	t.AddRow(fmt.Sprintf("all channels @ %s", report.FormatSI(power.MaxAllChannelHz)+"S/s"), "ok")
	t.AddRow(fmt.Sprintf("single channel @ %s", report.FormatSI(power.MaxSingleChannelHz)+"S/s"), "ok")
	t.AddRow("over-rate trace rejected", "ok")
	return t
}

// BootCost boots a four-core job over the network through the bridge
// and reports the nOS loading cost.
func BootCost(env *core.Env) (nos.BootStats, error) {
	m, release, err := env.Checkout(1, 1, core.Options{})
	if err != nil {
		return nos.BootStats{}, err
	}
	defer release()
	br, err := m.Bridge(topo.MakeNodeID(0, 3, topo.LayerV))
	if err != nil {
		return nos.BootStats{}, err
	}
	prog := xs1.MustAssemble(`
		getid r0
		dbg   r0
		tend
	`)
	var j nos.Job
	for i, node := range m.Sys.Nodes()[:4] {
		j.Add(fmt.Sprintf("t%d", i), node, prog)
	}
	st, err := j.BootOverNetwork(m, br, sim.Second)
	if err != nil {
		return st, err
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		return st, err
	}
	return st, nil
}
