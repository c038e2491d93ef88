package core

import (
	"sync/atomic"

	"swallow/internal/bridge"
	"swallow/internal/noc"
	"swallow/internal/power"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/trace"
	"swallow/internal/xs1"
)

// Snapshot is a point-in-time capture of a whole machine: the kernel
// clock and every armed timer, every core's SRAM/threads/counters,
// the full network fabric, the measurement boards' averaging windows,
// and every attached bridge. Machine.Restore rewinds the machine in
// place so the simulation replays the remaining event sequence
// byte-identically — the contract is
//
//	Restore(s) ≡ New + re-run of everything before Snapshot
//
// for all machine-observable state. The snapshot New takes is the
// empty prefix, and Reset restores it.
//
// A snapshot captures machine component state only, never host
// closure state: a workload.Flow pump or power.Trace tick holds its
// progress in Go closures the snapshot cannot see, so restoring under
// such a driver replays with the driver's *current* counters.
// Warm-start callers therefore snapshot at quiescent boundaries or
// drive the machine with in-SRAM programs, whose state is captured.
//
// Snapshots are only meaningful against the machine they were taken
// from; any number may be outstanding at once, and each stays valid
// across intervening restores (Reset among them) and further runs.
type Snapshot struct {
	kernel *sim.KernelSnapshot
	// cores in m.nodes order; boards in slice-index order.
	cores   []*xs1.CoreSnapshot
	net     *noc.NetworkSnapshot
	boards  []*power.BoardSnapshot
	bridges []bridgeState
	epoch   sim.Time
}

// bridgeState captures one attachment slot: whether the bridge was
// attached (channel ends claimed, wakes registered) and, if so, its
// queue/pacing state. Claims and wake callbacks themselves live in
// the network snapshot; timers in the kernel snapshot.
type bridgeState struct {
	live  bool
	state *bridge.Snapshot
}

// snapStats counts snapshot traffic process-wide (exported at
// /metrics as swallow_snapshot_*).
var snapStats struct {
	taken      atomic.Uint64
	restores   atomic.Uint64
	dirtyBytes atomic.Uint64
}

// SnapshotStats reports cumulative snapshot counters across all
// machines in the process.
type SnapshotStats struct {
	// Taken counts Machine.Snapshot calls, one of them in every New.
	Taken uint64
	// Restores counts Machine.Restore calls, one of them in every Reset
	// and so in every park.
	Restores uint64
	// DirtyBytes totals SRAM bytes copied back or cleared by restores —
	// the pages actually written since each snapshot, not the banks'
	// size.
	DirtyBytes uint64
}

// ReadSnapshotStats snapshots the process-wide counters.
func ReadSnapshotStats() SnapshotStats {
	return SnapshotStats{
		Taken:      snapStats.taken.Load(),
		Restores:   snapStats.restores.Load(),
		DirtyBytes: snapStats.dirtyBytes.Load(),
	}
}

// Snapshot captures the machine's current state. It must not be
// called while the kernel is executing an event.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		kernel: m.K.Snapshot(),
		cores:  make([]*xs1.CoreSnapshot, len(m.nodes)),
		net:    m.Net.Snapshot(),
		boards: make([]*power.BoardSnapshot, len(m.boards)),
		epoch:  m.epoch,
	}
	for i, node := range m.nodes {
		s.cores[i] = m.cores[node].Snapshot()
	}
	for i, b := range m.boards {
		s.boards[i] = b.Snapshot()
	}
	for _, slot := range m.bridges {
		bs := bridgeState{live: slot.live}
		if slot.live {
			bs.state = slot.b.Snapshot()
		}
		s.bridges = append(s.bridges, bs)
	}
	snapStats.taken.Add(1)
	if rec := m.K.Recorder(); rec != nil {
		rec.Emit(int64(m.K.Now()), trace.KindSnapshot, trace.SrcMachine,
			int64(m.K.Pending()), 0)
	}
	return s
}

// Restore rewinds the machine to a prior Snapshot of the same
// machine, reusing existing capacity: beyond copying SRAM pages
// written since the snapshot, a warm restore allocates nothing. It
// must not be called while the kernel is executing an event.
func (m *Machine) Restore(s *Snapshot) {
	m.K.Restore(s.kernel)
	dirty := int64(0)
	for i, node := range m.nodes {
		n := m.cores[node].Restore(s.cores[i])
		snapStats.dirtyBytes.Add(uint64(n))
		dirty += int64(n)
	}
	m.Net.Restore(s.net)
	for i, b := range m.boards {
		b.Restore(s.boards[i])
	}
	// Bridge slots attached after the snapshot have no captured state:
	// the network restore already rewound their channel ends to
	// unclaimed, so they are simply detached again.
	for i, slot := range m.bridges {
		if i < len(s.bridges) && s.bridges[i].live {
			slot.b.Restore(s.bridges[i].state)
			slot.live = true
		} else {
			slot.live = false
		}
	}
	m.epoch = s.epoch
	snapStats.restores.Add(1)
	if rec := m.K.Recorder(); rec != nil {
		rec.Emit(int64(m.K.Now()), trace.KindRestore, trace.SrcMachine, dirty, 0)
	}
}

// Bridge returns the machine's bridge at node, attaching one on first
// use and re-attaching it after a restore detached it. Bridges are part
// of the machine for pooling purposes: a recycled machine keeps its
// built bridges parked (detached, holding no claims) and revives them
// here with a cheap re-claim instead of a rebuild.
func (m *Machine) Bridge(node topo.NodeID) (*bridge.Bridge, error) {
	for _, slot := range m.bridges {
		if slot.b.Node() == node {
			if !slot.live {
				if err := slot.b.Attach(); err != nil {
					return nil, err
				}
				slot.live = true
			}
			return slot.b, nil
		}
	}
	b, err := bridge.New(m.K, m.Net, node)
	if err != nil {
		return nil, err
	}
	m.bridges = append(m.bridges, &bridgeSlot{b: b, live: true})
	return b, nil
}
