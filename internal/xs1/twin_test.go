package xs1

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"swallow/internal/sim"
	"swallow/internal/topo"
)

// countingSrc keeps four threads counting, each in the word under its
// stack pointer: every window stores, so twins adopt SRAM pages.
var countingSrc = spawned("count", "count", "count") + `
count:
	ldwi r6, sp, -1
	addi r6, r6, 1
	stwi r6, sp, -1
	add  r7, r7, r6
	bru  count
`

// twins builds one core per node of the rig's slice, every one loaded
// from the one program src assembles to, joined into one batching group:
// sixteen twin candidates.
func (r *rig) twins(t *testing.T, src string) []*Core {
	t.Helper()
	p := MustAssemble(src)
	var cores []*Core
	for _, node := range topo.MustSystem(1, 1).Nodes() {
		cores = append(cores, r.coreWith(t, node, p))
	}
	GroupTurbo(cores)
	return cores
}

// sliceState renders the kernel's accounting and every core's
// architectural state, output and SRAM. The rotation is rendered in
// issue order (rrNormalize, as Snapshot leaves it), which is all of it
// the simulation can see.
func sliceState(r *rig, cores []*Core) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d seq=%d fired=%d pending=%d\n", r.k.Now(), r.k.Seq(), r.k.Fired(), r.k.Pending())
	for _, c := range cores {
		c.rrNormalize()
		fmt.Fprintf(&b, "%v: %s trace=%v con=%q sram=%x\n", c.node, archState(c), c.DebugTrace, c.Console, sha256.Sum256(c.mem))
	}
	return b.String()
}

// adopted sums the slots the cores adopted since their counters were
// last flushed.
func adopted(cores []*Core) (n uint64) {
	for _, c := range cores {
		n += c.t.AdoptedSlots
	}
	return n
}

// TestTwinRestoreMatchesRerun is Restore ≡ re-run on a slice of twins
// that hold adopted SRAM writes. One twin's write clock is set far ahead
// of every other core's, as a core that has been rewound or written to
// more often than its class's representative has it: the pages it adopts
// after the snapshot must carry stamps of its own clock, above the
// snapshot's, or the restore would pass over them.
func TestTwinRestoreMatchesRerun(t *testing.T) {
	const prefix, suffix = 20 * sim.Microsecond, 30 * sim.Microsecond
	ref := newRig(t)
	refCores := ref.twins(t, countingSrc)
	ref.k.RunFor(prefix)
	ref.k.RunFor(suffix)
	want := sliceState(ref, refCores)

	r := newRig(t)
	cores := r.twins(t, countingSrc)
	r.k.RunFor(prefix)
	if adopted(cores) == 0 {
		t.Fatal("no twin adopted a window in the prefix")
	}
	ahead := cores[9]
	ahead.memGen += 1 << 40
	ks, ns := r.k.Snapshot(), r.net.Snapshot()
	snaps := make([]*CoreSnapshot, len(cores))
	for i, c := range cores {
		snaps[i] = c.Snapshot()
	}
	before := ahead.t.AdoptedSlots
	r.k.RunFor(suffix)
	if got := sliceState(r, cores); got != want {
		t.Fatalf("the run through the snapshot diverged from the reference:\n got %s\nwant %s", got, want)
	}
	if ahead.t.AdoptedSlots == before {
		t.Fatal("the twin whose clock leads adopted nothing after the snapshot")
	}
	r.k.Restore(ks)
	r.net.Restore(ns)
	for i, c := range cores {
		c.Restore(snaps[i])
	}
	r.k.RunFor(suffix)
	if got := sliceState(r, cores); got != want {
		t.Fatalf("restored and re-run:\n got %s\nwant %s", got, want)
	}
}

// TestTwinSplitsOnLoad loads another program onto one twin mid-run: that
// core leaves its class, and the others go on adopting one another's
// windows. Both runs end where the exact pipeline does.
func TestTwinSplitsOnLoad(t *testing.T) {
	run := func(exact bool) (string, []*Core) {
		r := newRig(t)
		r.exact = exact
		cores := r.twins(t, countingSrc)
		r.k.RunFor(10 * sim.Microsecond)
		if err := cores[7].Load(MustAssemble(turboLoop)); err != nil {
			t.Fatal(err)
		}
		for _, c := range cores {
			c.t = TurboStats{}
		}
		r.k.RunFor(20 * sim.Microsecond)
		return sliceState(r, cores), cores
	}
	want, _ := run(true)
	got, cores := run(false)
	if got != want {
		t.Fatalf("turbo diverged from the exact pipeline:\n got %s\nwant %s", got, want)
	}
	if n := cores[7].t.AdoptedSlots; n != 0 || cores[7].twin > 0 {
		t.Errorf("the reloaded core adopted %d slots and is in class %d; want neither", n, cores[7].twin)
	}
	if adopted(cores) == 0 {
		t.Error("no other twin adopted a window after the split")
	}
}

// TestTwinSplitsOnGETID runs twins into GETID: a communication
// instruction each issues itself, so each leaves its class, and the
// register it names holds the core's own node, not a twin's.
func TestTwinSplitsOnGETID(t *testing.T) {
	src := spawned("alu", "alu", "alu") + `
	ldc  r0, 2000
spin:
	subi r0, r0, 1
	brt  r0, spin
	getid r9
	ldc  r0, 2000
spin2:
	subi r0, r0, 1
	brt  r0, spin2
	tend
` + aluLoop
	run := func(exact bool) (string, []*Core) {
		r := newRig(t)
		r.exact = exact
		cores := r.twins(t, src)
		r.k.RunFor(100 * sim.Microsecond)
		return sliceState(r, cores), cores
	}
	want, _ := run(true)
	got, cores := run(false)
	if got != want {
		t.Fatalf("turbo diverged from the exact pipeline:\n got %s\nwant %s", got, want)
	}
	if adopted(cores) == 0 {
		t.Fatal("no twin adopted a window before GETID")
	}
	for _, c := range cores {
		if th := &c.threads[0]; th.State != TDone || th.Regs[9] != uint32(c.node) {
			t.Errorf("core %v: thread 0 %v with r9 = %#x, want done with its own node %#x", c.node, th.State, th.Regs[9], uint32(c.node))
		}
		if c.twin > 0 {
			t.Errorf("core %v is still in twin class %d after GETID", c.node, c.twin)
		}
	}
}

// TestTwinTrapIsNotAdopted runs twins into a trap deep inside a window:
// the window that ends in it is not handed on, so every twin computes its
// own and traps with an error of its own, and leaves its class.
func TestTwinTrapIsNotAdopted(t *testing.T) {
	src := spawned("alu", "alu", "alu") + `
	ldc  r0, 3000
spin:
	subi r0, r0, 1
	brt  r0, spin
	ldc  r3, 2
	ldw  r4, r3, r0   ; byte address 2: traps
	tend
` + aluLoop
	run := func(exact bool) (string, []*Core) {
		r := newRig(t)
		r.exact = exact
		cores := r.twins(t, src)
		for i := 0; i < 12; i++ {
			r.k.RunFor(5 * sim.Microsecond)
		}
		return sliceState(r, cores), cores
	}
	want, _ := run(true)
	got, cores := run(false)
	if got != want {
		t.Fatalf("turbo diverged from the exact pipeline:\n got %s\nwant %s", got, want)
	}
	if adopted(cores) == 0 {
		t.Fatal("no twin adopted a window before the trap")
	}
	seen := map[error]*Core{}
	for _, c := range cores {
		err := c.threads[0].trap
		if err == nil {
			t.Fatalf("core %v did not trap", c.node)
		}
		if other, ok := seen[err]; ok {
			t.Errorf("cores %v and %v hold one trap error: a trapped window was adopted", other.node, c.node)
		}
		seen[err] = c
		if c.twin > 0 {
			t.Errorf("core %v is still in twin class %d after its trap", c.node, c.twin)
		}
	}
	if got := cores[5].t.PreexecSlots; got < 1000 {
		t.Errorf("core %v pre-executed %d slots; the trap was not inside a window", cores[5].node, got)
	}
}
