// Package nos is the distributed nano-OS layer the Swallow project
// built for program loading and task placement (reference [3] of the
// paper, "nOS: a nano-sized distributed operating system for resource
// optimisation on many-core systems").
//
// Its centrepiece here is genuine network boot: every core starts in a
// small boot ROM (written in XS1 assembly, resident at the top of
// SRAM) that receives a program image over a channel, writes it to
// address zero and jumps to it. Images are streamed through the
// Ethernet bridge, so loading cost - time, link occupancy, energy - is
// borne by the simulated network exactly as the paper's boot process
// is ("it is possible to both load programs into and stream data in/out
// of Swallow over Ethernet").
package nos

import (
	"fmt"

	"swallow/internal/bridge"
	"swallow/internal/core"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/xs1"
)

// ROMBase is the byte address the boot ROM occupies.
const ROMBase = 0xF800

// BootChanIndex is the channel end the ROM listens on: the first GETR
// on a freshly reset core yields index 0.
const BootChanIndex = 0

// bootROMSource is the ROM: receive a word count, then that many
// words, store from address 0 upward, verify the closing END, free the
// boot channel and jump to the image.
const bootROMSource = `
	getr  r0, 2        ; boot channel end (index 0)
	in    r0, r1       ; image word count
	ldc   r2, 0        ; write pointer
bootloop:
	in    r0, r3
	stwi  r3, r2, 0
	addi  r2, r2, 4
	subi  r1, r1, 1
	brt   r1, bootloop
	chkct r0, ct_end
	freer r0
	ldc   r4, 0
	bau   r4           ; enter the loaded image
`

// BootROM assembles the ROM image at its resident base so internal
// branch targets resolve correctly.
func BootROM() *xs1.Program {
	return xs1.MustAssembleAt(bootROMSource, ROMBase/4)
}

// InstallROM loads the boot ROM high in a core's SRAM and points
// thread 0 at it, leaving low memory free for the incoming image.
func InstallROM(c *xs1.Core) error {
	rom := BootROM()
	if err := c.LoadAt(rom, ROMBase); err != nil {
		return err
	}
	return nil
}

// Task is one placed program.
type Task struct {
	// Name identifies the task in diagnostics.
	Name string
	// Node is the core the task runs on.
	Node topo.NodeID
	// Prog is the program image.
	Prog *xs1.Program
}

// Job is a set of tasks booted together.
type Job struct {
	Tasks []Task
}

// Add appends a task.
func (j *Job) Add(name string, node topo.NodeID, p *xs1.Program) {
	j.Tasks = append(j.Tasks, Task{Name: name, Node: node, Prog: p})
}

// Validate checks for duplicate placements and missing programs.
func (j *Job) Validate(sys topo.System) error {
	seen := map[topo.NodeID]string{}
	for _, t := range j.Tasks {
		if t.Prog == nil {
			return fmt.Errorf("nos: task %q has no program", t.Name)
		}
		if !sys.Contains(t.Node) {
			return fmt.Errorf("nos: task %q placed outside the system at %v", t.Name, t.Node)
		}
		if prev, dup := seen[t.Node]; dup {
			return fmt.Errorf("nos: tasks %q and %q both placed on %v", prev, t.Name, t.Node)
		}
		seen[t.Node] = t.Name
	}
	return nil
}

// imageWords frames a program for the boot ROM: word count then image.
func imageWords(p *xs1.Program) []uint32 {
	out := make([]uint32, 0, len(p.Words)+1)
	out = append(out, uint32(len(p.Words)))
	return append(out, p.Words...)
}

// BootStats reports what a network boot cost.
type BootStats struct {
	// Cores is the number of cores booted.
	Cores int
	// ImageBytes is the total payload streamed.
	ImageBytes int
	// Elapsed is the simulated boot time.
	Elapsed sim.Time
	// LinkEnergyJ is the network energy spent on boot traffic.
	LinkEnergyJ float64
}

// BootOverNetwork resets every target core into the boot ROM, streams
// each task's image through the bridge, and waits until all images are
// delivered and running. Non-target cores are left idle.
func (j *Job) BootOverNetwork(m *core.Machine, br *bridge.Bridge, timeout sim.Time) (BootStats, error) {
	var st BootStats
	if err := j.Validate(m.Sys); err != nil {
		return st, err
	}
	e0 := m.Net.TotalLinkEnergyJ()
	t0 := m.K.Now()
	for _, t := range j.Tasks {
		if err := InstallROM(m.Core(t.Node)); err != nil {
			return st, fmt.Errorf("nos: ROM on %v: %w", t.Node, err)
		}
	}
	// Let every ROM reach its blocking IN before streaming.
	m.K.RunFor(10 * sim.Microsecond)
	for _, t := range j.Tasks {
		words := imageWords(t.Prog)
		br.SendWords(bootChan(t.Node), words)
		st.ImageBytes += 4 * len(words)
	}
	// Wait until the bridge has drained and every core left the ROM
	// (PC below the ROM base means the image is running).
	deadline := m.K.Now() + timeout
	for m.K.Now() < deadline {
		m.K.RunFor(50 * sim.Microsecond)
		if br.Pending() > 0 {
			continue
		}
		allIn := true
		for _, t := range j.Tasks {
			c := m.Core(t.Node)
			if err := c.Trapped(); err != nil {
				return st, fmt.Errorf("nos: core %v trapped during boot: %w", t.Node, err)
			}
			th := c.Thread(0)
			if th.PC >= ROMBase/4 && th.State != xs1.TDone {
				allIn = false
				break
			}
		}
		if allIn {
			st.Cores = len(j.Tasks)
			st.Elapsed = m.K.Now() - t0
			st.LinkEnergyJ = m.Net.TotalLinkEnergyJ() - e0
			return st, nil
		}
	}
	return st, fmt.Errorf("nos: boot did not complete within %v", timeout)
}

// bootChan is the ROM's listening address on a node.
func bootChan(n topo.NodeID) noc.ChanEndID {
	return noc.MakeChanEndID(uint16(n), BootChanIndex)
}
