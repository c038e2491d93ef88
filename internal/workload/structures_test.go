package workload

import (
	"fmt"
	"strings"
	"testing"

	"swallow/internal/core"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/xs1"
)

func TestRingAroundSlice(t *testing.T) {
	// A token circulates through all sixteen cores of a slice and
	// comes back incremented fifteen times.
	m := core.MustNew(1, 1, core.Options{})
	nodes := m.Sys.Nodes()
	n := len(nodes)
	for i, nd := range nodes {
		next := chanID(nodes[(i+1)%n], 0)
		if i == 0 {
			if err := m.Load(nd, RingInjector(next)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := m.Load(nd, RingRelay(next)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := m.Core(nodes[0]).DebugTrace
	if len(got) != 1 || got[0] != uint32(n-1) {
		t.Fatalf("ring token = %v, want [%d]", got, n-1)
	}
}

func TestAllToAllExchange(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	participants := []topo.NodeID{
		node(0, 0, topo.LayerV), node(0, 0, topo.LayerH),
		node(1, 1, topo.LayerV), node(1, 2, topo.LayerH),
	}
	rx := make([]noc.ChanEndID, len(participants))
	for i, nd := range participants {
		rx[i] = chanID(nd, 0)
	}
	for rank, nd := range participants {
		if err := m.Load(nd, allToAll(rx, rank)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Each participant receives every other rank: sum = 0+1+2+3 - own.
	for rank, nd := range participants {
		got := m.Core(nd).DebugTrace
		want := uint32(6 - rank)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("rank %d sum = %v, want [%d]", rank, got, want)
		}
	}
}

func TestBarrierGroup(t *testing.T) {
	m := core.MustNew(1, 1, core.Options{})
	root := node(0, 0, topo.LayerV)
	members := []topo.NodeID{
		node(0, 0, topo.LayerH),
		node(0, 1, topo.LayerV),
		node(1, 2, topo.LayerH),
	}
	const rounds = 5
	if err := m.Load(root, BarrierRoot(len(members), rounds)); err != nil {
		t.Fatal(err)
	}
	for _, nd := range members {
		if err := m.Load(nd, BarrierMember(chanID(root, 0), rounds)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, nd := range members {
		got := m.Core(nd).DebugTrace
		if len(got) != 1 || got[0] != rounds {
			t.Fatalf("member %v releases = %v, want [%d]", nd, got, rounds)
		}
	}
}

func TestBarrierActuallySynchronises(t *testing.T) {
	// A member that reaches the barrier early must block until the
	// last member arrives: measure that a deliberately slow member
	// delays everyone's release.
	m := core.MustNew(1, 1, core.Options{})
	root := node(0, 0, topo.LayerV)
	fast := node(0, 0, topo.LayerH)
	slow := node(0, 1, topo.LayerV)
	if err := m.Load(root, BarrierRoot(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(fast, BarrierMember(chanID(root, 0), 1)); err != nil {
		t.Fatal(err)
	}
	// The slow member burns ~80 us before arriving.
	slowProg := `
		getr r0, 2
		getr r1, 2
		ldc  r2, ` + itoa(uint32(chanID(root, 0))) + `
		setd r1, r2
		ldc  r3, 10000
	burn:
		subi r3, r3, 1
		brt  r3, burn
		out  r1, r0
		outct r1, ct_end
		in   r0, r4
		chkct r0, ct_end
		tend
	`
	if err := m.Load(slow, mustAsm(slowProg)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The fast member's release can only have been issued after the
	// slow member's ~80 us of burn: check the root finished late.
	if m.Core(fast).LastIssue < 70*sim.Microsecond {
		t.Errorf("fast member released at %v, before the slow member arrived", m.Core(fast).LastIssue)
	}
}

// mustAsm assembles inline test programs.
func mustAsm(src string) *xs1.Program { return xs1.MustAssemble(src) }

// itoa renders a uint32 for inline assembly immediates.
func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// allToAll emits one word (the node's rank) to every peer and absorbs
// one word from each, logging the sum of received ranks. Peers are the
// rank-indexed receive channel ends of every participant; selfRank
// excludes the node's own entry.
func allToAll(peers []noc.ChanEndID, selfRank int) *xs1.Program {
	var b strings.Builder
	b.WriteString("getr r0, 2\n") // rx (chanend 0)
	b.WriteString("getr r1, 2\n") // tx (chanend 1)
	fmt.Fprintf(&b, "ldc r5, %d\n", selfRank)
	for rank, peer := range peers {
		if rank == selfRank {
			continue
		}
		fmt.Fprintf(&b, "ldc r2, %d\n", uint32(peer))
		b.WriteString("setd r1, r2\n")
		b.WriteString("out r1, r5\n")
		b.WriteString("outct r1, ct_end\n")
	}
	// Collect len(peers)-1 words; packets interleave at the shared
	// receive channel end.
	fmt.Fprintf(&b, "ldc r6, %d\nldc r7, 0\n", len(peers)-1)
	b.WriteString(`collect:
		in r0, r3
		chkct r0, ct_end
		add r7, r7, r3
		subi r6, r6, 1
		brt r6, collect
		dbg r7
		tend
	`)
	return xs1.MustAssemble(b.String())
}
