// Package core assembles complete Swallow machines: the slice grid and
// its unwoven-lattice network, one XS1-L core per node, the per-slice
// power supplies and measurement boards, and the energy accounting that
// makes the platform "energy transparent".
//
// This is the package examples, tools and benchmarks program against; a
// Machine is the paper's Fig. 1 stack in software.
//
// A machine has one way to rewind: Restore puts back a Snapshot,
// copying back only the SRAM pages written since. New takes a snapshot
// of the just-built machine, and Reset restores it, which is how the
// shared Pool recycles builds across sweep points; sweeps that share a
// simulated prefix (a network boot, a warmup) restore a snapshot taken
// after it and pay for it once. See snapshot.go for the contract.
package core

import (
	"fmt"
	"strings"

	"swallow/internal/bridge"
	"swallow/internal/noc"
	"swallow/internal/power"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/xs1"
)

// Options parameterises machine construction.
//
// Options conflates two kinds of knob. The structural half (grid
// shape, link counts, buffer depths, channel-end counts, latencies,
// routing policy) is baked in at build time; the run-time half — the
// operating point (core clock and supply voltage, link timings) — can
// be changed after construction with Machine.Retune. The machine Pool
// keys on the structural half only, so sweep points differing only in
// operating point share one build.
type Options struct {
	// Noc configures the interconnect; zero value means the Table I
	// operating point.
	Noc *noc.Config
	// Core configures every processor; zero value means 500 MHz at 1 V.
	Core *xs1.Config
}

// resolve returns the fully defaulted noc and core configurations.
func (o Options) resolve() (noc.Config, xs1.Config) {
	nocCfg := noc.OperatingConfig()
	if o.Noc != nil {
		nocCfg = *o.Noc
	}
	coreCfg := xs1.DefaultConfig()
	if o.Core != nil {
		coreCfg = *o.Core
	}
	return nocCfg, coreCfg
}

// OperatingPoint is the run-time half of a machine's configuration:
// everything Machine.Retune can change on a built machine without
// rebuilding. Frequency/DVFS sweeps move between operating points on
// one structure.
type OperatingPoint struct {
	// Core is every processor's clock and supply.
	Core xs1.Config
	// Internal, External and OffBoard are the link timings per
	// physical class.
	Internal, External, OffBoard noc.LinkTiming
}

// OperatingPoint extracts the run-time half of the options, defaults
// resolved.
func (o Options) OperatingPoint() OperatingPoint {
	nocCfg, coreCfg := o.resolve()
	return OperatingPoint{
		Core:     coreCfg,
		Internal: nocCfg.Internal,
		External: nocCfg.External,
		OffBoard: nocCfg.OffBoard,
	}
}

// shape canonically encodes the structural half of a machine build:
// the grid and the options with every run-time (operating point) knob
// normalised out. It is a comparable value, used directly as the
// Pool's map key so checkout allocates nothing. Two builds with equal
// shapes are interchangeable under Reset + Retune, which is the Pool's
// contract.
type shape struct {
	slicesX, slicesY int
	// noc is the structural network configuration, timings zeroed.
	noc noc.Config
}

func shapeOf(slicesX, slicesY int, o Options) shape {
	nocCfg, _ := o.resolve()
	nocCfg.Internal, nocCfg.External, nocCfg.OffBoard =
		noc.LinkTiming{}, noc.LinkTiming{}, noc.LinkTiming{}
	return shape{slicesX: slicesX, slicesY: slicesY, noc: nocCfg}
}

// SupplyGroups is the number of core supplies per slice: four 1 V
// converters, each feeding two chips (four cores), per Section II.
const SupplyGroups = 4

// CoresPerSupply is the load of one 1 V converter.
const CoresPerSupply = topo.CoresPerSlice / SupplyGroups

// CoreSupplyEfficiency is the implied 1 V converter efficiency,
// calibrated so a fully loaded slice draws ~4.5 W at the wall
// (Section III-A).
const CoreSupplyEfficiency = 0.82

// SliceSupportPowerW is the 3.3 V rail's constant draw (support logic,
// I/O, link drivers): the remainder of the 4.5 W budget.
const SliceSupportPowerW = 0.73

// SliceSupplies is the converter count per board: four core rails plus
// the 3.3 V I/O rail.
const SliceSupplies = SupplyGroups + 1

// Machine is an assembled Swallow system.
type Machine struct {
	K   *sim.Kernel
	Sys topo.System
	Net *noc.Network

	cores map[topo.NodeID]*xs1.Core
	// nodes caches Sys.Nodes() — the deterministic iteration order every
	// whole-machine loop (run polling, energy sums, reset) walks without
	// re-allocating the list.
	nodes []topo.NodeID

	// supplies[sliceIndex][rail]; rail SliceSupplies-1 is the 3.3 V rail.
	supplies [][]*power.Supply
	boards   []*power.Board

	// bridges are the attachment slots Machine.Bridge manages, in
	// first-attach order. Slots persist across Reset/Restore (detached,
	// holding no channel-end claims) so a pooled machine reuses its
	// built bridges.
	bridges []*bridgeSlot

	epoch sim.Time
	// shape is the structural key the Pool files this machine under.
	shape shape
	// pristine is the snapshot New takes of the just-built machine, moved
	// by Retune to each new operating point; Reset restores it.
	pristine *Snapshot
	// exact is the pipeline Env.Checkout last stamped on the cores.
	exact bool
}

// bridgeSlot is one Machine.Bridge attachment: the built bridge and
// whether it currently holds its claims.
type bridgeSlot struct {
	b    *bridge.Bridge
	live bool
}

// New builds a machine over a slicesX x slicesY board grid.
func New(slicesX, slicesY int, opts Options) (*Machine, error) {
	sys, err := topo.NewSystem(slicesX, slicesY)
	if err != nil {
		return nil, err
	}
	nocCfg, coreCfg := opts.resolve()
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, sys, nocCfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		K:     k,
		Sys:   sys,
		Net:   net,
		cores: make(map[topo.NodeID]*xs1.Core),
		nodes: sys.Nodes(),
		shape: shapeOf(slicesX, slicesY, opts),
	}
	for _, node := range m.nodes {
		c, err := xs1.NewCore(k, net.Switch(node), coreCfg)
		if err != nil {
			return nil, err
		}
		m.cores[node] = c
	}
	// One batching group per machine: the execution fast path absorbs
	// sibling cores' issue events so lockstep machines batch across
	// cores instead of stopping at every same-cycle neighbour.
	xs1.GroupTurbo(m.Cores())
	if err := m.buildPowerTree(); err != nil {
		return nil, err
	}
	m.pristine = m.Snapshot()
	return m, nil
}

// Reset rewinds the whole machine to the snapshot New took of it —
// kernel clock and queue, network fabric, every core's threads, SRAM,
// counters and energy, measurement-board baselines, bridges detached —
// keeping all structure and capacity. A reset machine is
// observationally identical to a fresh New at the operating point last
// given to New or Retune; a per-core SetFrequency or SetVoltage does
// not survive it. Reset must not be called while the kernel is
// executing an event.
func (m *Machine) Reset() { m.Restore(m.pristine) }

// Retune moves the machine to a new operating point — every core's
// clock and supply, every link's timing — without rebuilding any
// structure, and moves the snapshot Reset restores with it. The core
// config is validated once up front, so Retune either applies
// everywhere or changes nothing.
func (m *Machine) Retune(op OperatingPoint) error {
	if err := op.Core.Validate(); err != nil {
		return err
	}
	for i, node := range m.nodes {
		if err := m.cores[node].Retune(op.Core); err != nil {
			return err
		}
		m.pristine.cores[i].SetConfig(op.Core)
	}
	m.Net.Retune(op.Internal, op.External, op.OffBoard)
	m.pristine.net.SetTimings(op.Internal, op.External, op.OffBoard)
	return nil
}

// MustNew is New for known-good literals; it panics on error.
func MustNew(slicesX, slicesY int, opts Options) *Machine {
	m, err := New(slicesX, slicesY, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// buildPowerTree wires each slice's cores to its four 1 V supplies, by
// Rail, and attaches the support rail and measurement board.
func (m *Machine) buildPowerTree() error {
	m.supplies = make([][]*power.Supply, m.Sys.Slices())
	m.boards = make([]*power.Board, m.Sys.Slices())
	for idx := range m.supplies {
		m.supplies[idx] = make([]*power.Supply, SupplyGroups, SliceSupplies)
		for g := range SupplyGroups {
			s, err := power.NewSupply(
				fmt.Sprintf("slice%d-1V-%c", idx, 'A'+g), 1.0, 5.0, CoreSupplyEfficiency)
			if err != nil {
				return err
			}
			m.supplies[idx][g] = s
		}
	}
	for _, node := range m.nodes {
		slice, g := Rail(m.Sys, node)
		m.supplies[slice][g].Attach(m.cores[node].EnergyJ)
	}
	k := m.K
	for idx, rails := range m.supplies {
		io, err := power.NewSupply(fmt.Sprintf("slice%d-3V3", idx), 3.3, 5.0, 0.85)
		if err != nil {
			return err
		}
		io.Attach(func() float64 {
			return SliceSupportPowerW * 0.85 * k.Now().Seconds()
		})
		rails = append(rails, io)
		board, err := power.NewBoard(m.K, rails)
		if err != nil {
			return err
		}
		board.SetTraceIndex(idx)
		m.supplies[idx] = rails
		m.boards[idx] = board
	}
	return nil
}

// Rail names the 1 V converter that feeds a node: the index of its
// slice board (as Board takes it) and of the rail on that board. Each
// rail feeds CoresPerSupply cores, two packages in board order.
func Rail(sys topo.System, n topo.NodeID) (slice, rail int) {
	sx, sy := sys.SliceOf(n)
	pkg := (n.Y()%topo.PackagesPerSliceY)*topo.PackagesPerSliceX + n.X()%topo.PackagesPerSliceX
	return sy*sys.SlicesX + sx, (pkg*topo.CoresPerPackage + int(n.Layer())) / CoresPerSupply
}

// Core returns the processor at a node.
func (m *Machine) Core(node topo.NodeID) *xs1.Core { return m.cores[node] }

// CoreAt returns the processor at package coordinates and layer.
func (m *Machine) CoreAt(x, y int, l topo.Layer) *xs1.Core {
	return m.cores[topo.MakeNodeID(x, y, l)]
}

// Cores enumerates processors in deterministic node order.
func (m *Machine) Cores() []*xs1.Core {
	out := make([]*xs1.Core, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = m.cores[n]
	}
	return out
}

// Board returns slice idx's measurement daughter-board.
func (m *Machine) Board(idx int) *power.Board { return m.boards[idx] }

// Supplies returns slice idx's converter set.
func (m *Machine) Supplies(idx int) []*power.Supply { return m.supplies[idx] }

// Load places a program on one core.
func (m *Machine) Load(node topo.NodeID, p *xs1.Program) error {
	c := m.cores[node]
	if c == nil {
		return fmt.Errorf("core: no core at %v", node)
	}
	return c.Load(p)
}

// LoadAll places the same program on every core.
func (m *Machine) LoadAll(p *xs1.Program) error {
	for _, node := range m.nodes {
		if err := m.cores[node].Load(p); err != nil {
			return err
		}
	}
	return nil
}

// Run advances simulation until every loaded core halts or the horizon
// passes, returning an error on traps or timeout. A machine whose
// kernel runs dry while threads are still live can never finish — no
// event is left to wake them — so Run stops polling there, moves the
// clock to the deadline exactly as the exhausted poll loop would, and
// names the stuck threads in the error.
func (m *Machine) Run(horizon sim.Time) error {
	deadline := m.K.Now() + horizon
	step := horizon / 1000
	if step < sim.Microsecond {
		step = sim.Microsecond
	}
	for m.K.Now() < deadline {
		// The last step stops at the deadline, not a step past it.
		m.RunFor(min(step, deadline-m.K.Now()))
		done := true
		for _, node := range m.nodes {
			c := m.cores[node]
			if err := c.Trapped(); err != nil {
				return fmt.Errorf("core %v: %w", node, err)
			}
			if !c.Done() {
				done = false
			}
		}
		if done {
			return nil
		}
		if m.K.Pending() == 0 {
			m.RunFor(deadline - m.K.Now())
			return fmt.Errorf("core: machine did not finish within %v: deadlock, no event pending: %s",
				horizon, m.stuckThreads())
		}
	}
	return fmt.Errorf("core: machine did not finish within %v", horizon)
}

// stuckThreads lists the live threads of a machine that can make no
// further progress, in node order: which (node, thread) is blocked on
// which channel end and what its instruction is short of there — the
// tokens an input holds of those it wants, the slots an output has — or
// its state otherwise. The list is cut after a few entries; the count is
// always complete.
func (m *Machine) stuckThreads() string {
	const show = 8
	var b strings.Builder
	n := 0
	for _, node := range m.nodes {
		c := m.cores[node]
		for id := 0; id < xs1.MaxThreads; id++ {
			th := c.Thread(id)
			switch th.State {
			case xs1.TFree, xs1.TDone, xs1.TTrapped:
				continue
			}
			if n++; n > show {
				continue
			}
			if n > 1 {
				b.WriteString(", ")
			}
			if th.State == xs1.TBlockedChan {
				fmt.Fprintf(&b, "%v thread %d on chanend %v", node, id, th.BlockedOn())
				if short, ok := c.Shortfall(id); ok {
					fmt.Fprintf(&b, ": %v", short)
				}
			} else {
				fmt.Fprintf(&b, "%v thread %d %v", node, id, th.State)
			}
		}
	}
	if n > show {
		fmt.Fprintf(&b, " and %d more", n-show)
	}
	return fmt.Sprintf("%d stuck (%s)", n, b.String())
}

// RunFor advances simulation by d without completion checks.
func (m *Machine) RunFor(d sim.Time) {
	m.K.RunFor(d)
	// Fold the cores' fast-path counters into the process-wide totals
	// here, at the run boundary, keeping atomics off the issue loop.
	for _, node := range m.nodes {
		m.cores[node].FlushTurboStats()
	}
}

// TotalCoreEnergyJ sums processor energy across the machine in
// deterministic node order (float sums must not depend on map order,
// or a reset re-run could differ in the last bit).
func (m *Machine) TotalCoreEnergyJ() float64 {
	e := 0.0
	for _, node := range m.nodes {
		e += m.cores[node].EnergyJ()
	}
	return e
}

// TotalInstrCount sums executed instructions.
func (m *Machine) TotalInstrCount() uint64 {
	var n uint64
	for _, node := range m.nodes {
		n += m.cores[node].InstrCount
	}
	return n
}

// WallEnergyJ is the machine's total input-side energy: core rails and
// support rails through their converters, plus link transfer energy
// (billed to the I/O budget).
func (m *Machine) WallEnergyJ() float64 {
	e := 0.0
	for _, rails := range m.supplies {
		for _, s := range rails {
			e += s.InputEnergyJ()
		}
	}
	return e + m.Net.TotalLinkEnergyJ()
}

// MeanWallPowerW averages wall power since the machine epoch.
func (m *Machine) MeanWallPowerW() float64 {
	d := (m.K.Now() - m.epoch).Seconds()
	if d <= 0 {
		return 0
	}
	return m.WallEnergyJ() / d
}

// PeakGIPS is the Eq. 2 aggregate capacity of the machine with >= 4
// threads per core ("the system provides up to 240 GIPS").
func (m *Machine) PeakGIPS() float64 {
	f := 0.0
	for _, node := range m.nodes {
		f += m.cores[node].Config().FreqMHz * 1e6
	}
	return f / 1e9
}

// SetAllFrequencies rescales every core clock (global DFS).
func (m *Machine) SetAllFrequencies(fMHz float64) error {
	for _, node := range m.nodes {
		if err := m.cores[node].SetFrequency(fMHz); err != nil {
			return err
		}
	}
	return nil
}

// Footprint estimates the machine's resident size for pool byte
// budgeting: the dominant term is per-core simulated SRAM, padded for
// the switch, channel-end and thread structures around each core. It
// is a budgeting estimate, not an exact heap measurement.
func (m *Machine) Footprint() int64 {
	const perCoreOverhead = 16 << 10
	return int64(len(m.nodes)) * int64(xs1.MemSize+perCoreOverhead)
}

// Slices reports the board count.
func (m *Machine) Slices() int { return m.Sys.Slices() }

// CoreCount reports the processor count.
func (m *Machine) CoreCount() int { return m.Sys.Cores() }

// NodeBudgetW estimates the per-node wall power budget of slice idx
// over the window since its board's last sample: the Fig. 2 quantity
// (260 mW/node under load).
func (m *Machine) NodeBudgetW(idx int) float64 {
	smp := m.boards[idx].SampleAll()
	return smp.TotalInputW() / float64(topo.CoresPerSlice)
}

// EnergyReport summarises where energy went, in the vocabulary of
// Fig. 2's wedges.
type EnergyReport struct {
	// Elapsed is the accounting window.
	Elapsed sim.Time
	// ComputationJ is instruction switching energy (Fig. 2
	// "computation & memory ops").
	ComputationJ float64
	// BackgroundJ is static plus idle-clock energy (Fig. 2's "static"
	// and the static share of "network interface").
	BackgroundJ float64
	// ConversionJ is DC-DC loss (part of Fig. 2 "DC-DC & I/O").
	ConversionJ float64
	// SupportJ is the 3.3 V rail's consumption (rest of "DC-DC & I/O"
	// plus "other").
	SupportJ float64
	// LinkJ is network transfer energy.
	LinkJ float64
}

// TotalJ sums the report.
func (r EnergyReport) TotalJ() float64 {
	return r.ComputationJ + r.BackgroundJ + r.ConversionJ + r.SupportJ + r.LinkJ
}

// Report decomposes machine energy since the epoch.
func (m *Machine) Report() EnergyReport {
	var r EnergyReport
	r.Elapsed = m.K.Now() - m.epoch
	coreOut := 0.0
	for _, node := range m.nodes {
		c := m.cores[node]
		r.ComputationJ += c.DynamicEnergyJ()
		coreOut += c.EnergyJ()
	}
	r.BackgroundJ = coreOut - r.ComputationJ
	for _, rails := range m.supplies {
		for i, s := range rails {
			if i < SupplyGroups {
				r.ConversionJ += s.InputEnergyJ() - s.OutputEnergyJ()
			} else {
				r.SupportJ += s.InputEnergyJ()
			}
		}
	}
	r.LinkJ = m.Net.TotalLinkEnergyJ()
	return r
}
