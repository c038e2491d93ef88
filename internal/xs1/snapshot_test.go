package xs1

import (
	"fmt"
	"math"
	"testing"

	"swallow/internal/sim"
	"swallow/internal/topo"
)

// rewindProg exercises compute and debug traffic so a rewind has real
// state to scrub.
const rewindProg = `
	ldc  r0, 40
	ldc  r1, 0
loop:
	add  r1, r1, r0
	subi r0, r0, 1
	brt  r0, loop
	dbg  r1
	tend
`

// TestCoreSnapshotDifferential is Restore ≡ re-run at the core: a core
// restored to a snapshot, with its kernel and fabric, replays what the
// uninterrupted run did, down to the trace, counters, energy bits and
// finish time. Two snapshots are the inputs. One is taken mid-run. The
// other is taken at construction, the empty prefix: it holds no SRAM,
// and restored on a core that has since run at another operating point
// it must give what a fresh build gives.
func TestCoreSnapshotDifferential(t *testing.T) {
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	load := func(c *Core) {
		if err := c.Load(MustAssemble(rewindProg)); err != nil {
			t.Fatal(err)
		}
	}
	finish := func(r *rig, c *Core) string {
		r.run(t, 10*sim.Microsecond, c)
		return fmt.Sprintf("trace=%v instrs=%d energy=%x last=%v now=%v",
			c.DebugTrace, c.InstrCount, math.Float64bits(c.EnergyJ()), c.LastIssue, r.k.Now())
	}

	fresh := newRig(t)
	fc, err := NewCore(fresh.k, fresh.net.Switch(node), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	load(fc)
	want := finish(fresh, fc)

	r := newRig(t)
	c, err := NewCore(r.k, r.net.Switch(node), Config{FreqMHz: 125, VDD: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	ks, ns, cs := r.k.Snapshot(), r.net.Snapshot(), c.Snapshot()
	if n := cs.SRAMBytes(); n != 0 {
		t.Fatalf("the snapshot of a just-built core holds %d SRAM bytes", n)
	}
	cs.SetConfig(DefaultConfig())
	restore := func() {
		r.k.Restore(ks)
		r.net.Restore(ns)
		c.Restore(cs)
	}

	// Dirty the core at its own operating point, a high SRAM page too.
	load(c)
	if err := c.writeWord(MemSize-4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	finish(r, c)
	restore()
	if w, _ := c.loadWord(MemSize - 4); w != 0 {
		t.Fatalf("restoring the construction snapshot left %#x in a page it never saw written", w)
	}
	load(c)
	if got := finish(r, c); got != want {
		t.Fatalf("restored construction snapshot:\n got %s\nwant %s", got, want)
	}

	// Cut the same run mid-way, finish it, restore the cut and finish again.
	restore()
	load(c)
	r.k.RunFor(300 * sim.Nanosecond)
	if c.InstrCount == 0 || c.Done() {
		t.Fatalf("cut after %d instructions, done=%v: not mid-run", c.InstrCount, c.Done())
	}
	ks, ns, cs = r.k.Snapshot(), r.net.Snapshot(), c.Snapshot()
	if got := finish(r, c); got != want {
		t.Fatalf("run through the cut:\n got %s\nwant %s", got, want)
	}
	restore()
	if got := finish(r, c); got != want {
		t.Fatalf("restored mid-run snapshot:\n got %s\nwant %s", got, want)
	}
}

// TestCoreRetuneValidates pins Retune to construction's envelope.
func TestCoreRetuneValidates(t *testing.T) {
	r := newRig(t)
	c, err := NewCore(r.k, r.net.Switch(topo.MakeNodeID(0, 0, topo.LayerV)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Retune(Config{FreqMHz: 900, VDD: 1.0}); err == nil {
		t.Fatal("over-frequency retune accepted")
	}
	if err := c.Retune(Config{FreqMHz: 250, VDD: 0.2}); err == nil {
		t.Fatal("under-voltage retune accepted")
	}
	if err := c.Retune(Config{FreqMHz: 250, VDD: 0.8}); err != nil {
		t.Fatalf("valid retune rejected: %v", err)
	}
	if got := c.Config(); got.FreqMHz != 250 || got.VDD != 0.8 {
		t.Fatalf("config after retune = %+v", got)
	}
}
