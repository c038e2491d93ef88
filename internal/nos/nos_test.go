package nos

import (
	"fmt"
	"strings"
	"testing"

	"swallow/internal/bridge"
	"swallow/internal/core"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

func TestBootROMAssembles(t *testing.T) {
	rom := BootROM()
	if rom.ByteLen() == 0 || ROMBase+rom.ByteLen() > xs1.MemSize {
		t.Fatalf("ROM size %d at %#x invalid", rom.ByteLen(), ROMBase)
	}
}

func TestJobValidate(t *testing.T) {
	sys := topo.MustSystem(1, 1)
	p := xs1.MustAssemble("tend")
	var j Job
	j.Add("a", topo.MakeNodeID(0, 0, topo.LayerV), p)
	j.Add("b", topo.MakeNodeID(0, 0, topo.LayerV), p)
	if err := j.Validate(sys); err == nil || !strings.Contains(err.Error(), "both placed") {
		t.Errorf("duplicate placement not caught: %v", err)
	}
	var j2 Job
	j2.Add("a", topo.MakeNodeID(9, 9, topo.LayerV), p)
	if err := j2.Validate(sys); err == nil {
		t.Error("out-of-system placement not caught")
	}
	var j3 Job
	j3.Add("a", topo.MakeNodeID(0, 0, topo.LayerV), nil)
	if err := j3.Validate(sys); err == nil {
		t.Error("nil program not caught")
	}
}

func TestPlaceRoundRobin(t *testing.T) {
	sys := topo.MustSystem(1, 1)
	progs := make([]*xs1.Program, 5)
	for i := range progs {
		progs[i] = xs1.MustAssemble("tend")
	}
	j, err := placeRoundRobin(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Tasks) != 5 {
		t.Fatalf("tasks = %d", len(j.Tasks))
	}
	seen := map[topo.NodeID]bool{}
	for _, task := range j.Tasks {
		if seen[task.Node] {
			t.Fatal("duplicate placement")
		}
		seen[task.Node] = true
	}
	if _, err := placeRoundRobin(sys, make([]*xs1.Program, 17)); err == nil {
		t.Error("17 programs on 16 cores accepted")
	}
}

func TestLoadDirect(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	var j Job
	j.Add("hello", topo.MakeNodeID(0, 0, topo.LayerV),
		xs1.MustAssemble("ldc r0, 7\ndbg r0\ntend"))
	if err := j.loadDirect(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := m.Core(topo.MakeNodeID(0, 0, topo.LayerV)).DebugTrace
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("trace = %v", got)
	}
}

func TestNetworkBootSingleCore(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	br, err := bridge.New(m.K, m.Net, topo.MakeNodeID(0, 3, topo.LayerV))
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	j.Add("payload", topo.MakeNodeID(1, 1, topo.LayerH),
		xs1.MustAssemble(`
			ldc r0, 123
			dbg r0
			ldc r1, 0
			ldc r2, 456
		loop:
			add r1, r1, r2
			subi r2, r2, 1
			brt r2, loop
			dbg r1
			tend
		`))
	st, err := j.BootOverNetwork(m, br, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cores != 1 || st.ImageBytes == 0 || st.Elapsed <= 0 || st.LinkEnergyJ <= 0 {
		t.Errorf("boot stats implausible: %+v", st)
	}
	// Let the booted image run to completion.
	if err := m.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := m.Core(topo.MakeNodeID(1, 1, topo.LayerH)).DebugTrace
	if len(got) != 2 || got[0] != 123 || got[1] != 456*457/2 {
		t.Fatalf("booted image trace = %v", got)
	}
}

func TestNetworkBootManyCores(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	br, err := bridge.New(m.K, m.Net, topo.MakeNodeID(0, 3, topo.LayerV))
	if err != nil {
		t.Fatal(err)
	}
	prog := xs1.MustAssemble(`
		getid r0
		dbg r0
		tend
	`)
	var j Job
	for _, node := range m.Sys.Nodes()[:8] {
		j.Add("t", node, prog)
	}
	if _, err := j.BootOverNetwork(m, br, 500*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, node := range m.Sys.Nodes()[:8] {
		got := m.Core(node).DebugTrace
		if len(got) != 1 || got[0] != uint32(node) {
			t.Fatalf("node %v trace = %v", node, got)
		}
	}
}

func TestNetworkBootThenWorkload(t *testing.T) {
	// Boot a two-core stream pair over the network and verify the
	// application behaves identically to direct load.
	m := core.MustNew(1, 1, core.Options{})
	br, err := bridge.New(m.K, m.Net, topo.MakeNodeID(0, 3, topo.LayerV))
	if err != nil {
		t.Fatal(err)
	}
	rxNode := topo.MakeNodeID(1, 0, topo.LayerH)
	txNode := topo.MakeNodeID(0, 0, topo.LayerV)
	const words = 10
	var j Job
	// Booted programs allocate channel ends after the ROM frees index
	// 0, so the receiver still gets index 0.
	j.Add("rx", rxNode, workload.StreamRx(words))
	j.Add("tx", txNode, workload.StreamTx(
		noc.MakeChanEndID(uint16(rxNode), 0), words))
	if _, err := j.BootOverNetwork(m, br, 500*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := m.Core(rxNode).DebugTrace
	if len(got) != 1 || got[0] != words*(words-1)/2 {
		t.Fatalf("stream sum after network boot = %v", got)
	}
}

// placeRoundRobin assigns programs to cores in node-enumeration order:
// the simplest locality-agnostic placement.
func placeRoundRobin(sys topo.System, progs []*xs1.Program) (*Job, error) {
	nodes := sys.Nodes()
	if len(progs) > len(nodes) {
		return nil, fmt.Errorf("nos: %d programs for %d cores", len(progs), len(nodes))
	}
	j := &Job{}
	for i, p := range progs {
		j.Add(fmt.Sprintf("task%d", i), nodes[i], p)
	}
	return j, nil
}

// loadDirect installs every task image through the host debug path
// (the JTAG-style alternative to network boot), a baseline without boot
// traffic.
func (j *Job) loadDirect(m *core.Machine) error {
	if err := j.Validate(m.Sys); err != nil {
		return err
	}
	for _, t := range j.Tasks {
		if err := m.Load(t.Node, t.Prog); err != nil {
			return fmt.Errorf("nos: loading %q: %w", t.Name, err)
		}
	}
	return nil
}
