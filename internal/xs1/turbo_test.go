package xs1

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/trace"
)

// turboLoop is a small always-ready compute loop: every instruction
// decodes from the same page, so after one pass the predecode cache
// serves every fetch and the batch loop runs pure hit-path.
const turboLoop = `
	ldc r0, 7
loop:
	add r1, r0, r0
	sub r2, r1, r0
	or r3, r2, r1
	and r4, r3, r2
	bru loop
`

// turboLoopOn runs turboLoop's body on so many threads, each spawned
// thread on a stack of its own.
func turboLoopOn(threads int) string {
	return spawned(slices.Repeat([]string{"loop"}, threads-1)...) +
		"loop:\n\tadd r1, r0, r0\n\tsub r2, r1, r0\n\tor r3, r2, r1\n\tand r4, r3, r2\n\tbru loop\n"
}

// spawned starts a thread at each label, each on a stack of its own.
func spawned(labels ...string) string {
	var b strings.Builder
	for i, l := range labels {
		fmt.Fprintf(&b, "\tgetst r1, %s\n\tldc   r2, %#x\n\ttsetr r1, 12, r2\n\ttstart r1\n", l, 0xF000-(i+1)*0x800)
	}
	return b.String()
}

// aluLoop is a two-instruction compute loop at label alu.
const aluLoop = "alu:\n\tadd r1, r0, r0\n\tsub r2, r1, r0\n\tbru alu\n"

// turboLoop2 leaves two slots in four empty: two instructions, an idle
// probe and two periods skipped, over and over. turboLoop4 fills every
// issue slot of the core: the load a slice steps in rounds of one slot
// under.
var turboLoop2, turboLoop4 = turboLoopOn(2), turboLoopOn(4)

// group builds one core per node of the rig's slice, all running src,
// joined into one batching group as a machine would.
func (r *rig) group(t *testing.T, src string) []*Core {
	t.Helper()
	var cores []*Core
	for _, node := range topo.MustSystem(1, 1).Nodes() {
		cores = append(cores, r.core(t, node, src))
	}
	GroupTurbo(cores)
	return cores
}

// preexecSlots sums the slots the cores have run ahead of the clock
// since their counters were last flushed.
func preexecSlots(cores []*Core) (n uint64) {
	for _, c := range cores {
		n += c.t.PreexecSlots
	}
	return n
}

// roundSlots sums the slots replayed by whole turns of the group ring
// since the cores' counters were last flushed.
func roundSlots(cores []*Core) (n uint64) {
	for _, c := range cores {
		n += c.t.RoundSlots
	}
	return n
}

// TestTurboZeroAllocs pins the steady-state fast path at zero
// allocations: once the decode cache pages exist and the kernel and
// batch queues have reached capacity, batched execution — pick,
// cached fetch, execute, StepTo, re-arm — must not touch the heap.
// Cache population itself may allocate (one page per generation);
// the prewarm run pays that before measurement starts. A lone core runs
// the no-queue fast path; sixteen pre-execute and replay, through logs
// NewCore allocated, by whole blocks of the ring — an instruction, an idle
// probe and the periods it skips when each runs one thread, two
// instructions and a probe when two, a slot and a period when four threads
// fill every slot.
func TestTurboZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		build         func(r *rig) []*Core
		ahead, rounds bool
	}{
		{"solo", func(r *rig) []*Core { return []*Core{r.core(t, v00(), turboLoop)} }, false, false},
		{"slice", func(r *rig) []*Core { return r.group(t, turboLoop) }, true, true},
		{"slice of two threads", func(r *rig) []*Core { return r.group(t, turboLoop2) }, true, true},
		{"lockstep", func(r *rig) []*Core { return r.group(t, turboLoop4) }, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			cores := tc.build(r)
			c := cores[0]

			// Prewarm: populate the decode cache page and let every
			// queue grow to steady capacity — the kernel's bucket
			// capacities migrate around the wheel as bursts rotate
			// through it, so that takes hundreds of same-sized bursts.
			const burst = 2 * sim.Microsecond
			for i := 0; i < 300; i++ {
				r.k.RunFor(burst)
			}
			if c.t.DecodeHits == 0 {
				t.Fatal("prewarm recorded no decode-cache hits; fast path not engaged")
			}

			before := c.InstrCount
			allocs := testing.AllocsPerRun(20, func() {
				r.k.RunFor(burst)
			})
			if c.InstrCount == before {
				t.Fatal("measurement runs executed no instructions")
			}
			if allocs != 0 {
				t.Errorf("batched issue loop allocates: %.1f allocs per RunFor(%v) burst, want 0", allocs, burst)
			}
			if got := preexecSlots(cores) > 0; got != tc.ahead {
				t.Errorf("cores pre-executed: %v, want %v", got, tc.ahead)
			}
			if got := roundSlots(cores) > 0; got != tc.rounds {
				t.Errorf("slots retired by rounds: %v, want %v", got, tc.rounds)
			}
		})
	}
}

// TestTurboDecodeInvalidation pins the cache-coherence contract: a
// store that rewrites code in a page already cached must be decoded
// fresh (generation-stamp mismatch), counted as a stale entry, and
// executed with the new bytes — code patches cannot run stale.
func TestTurboDecodeInvalidation(t *testing.T) {
	progA := MustAssemble("ldc r0, 5\nldc r1, 3\nadd r2, r0, r1\ntend\n")
	progB := MustAssemble("ldc r0, 5\nldc r1, 3\nsub r2, r0, r1\ntend\n")
	patch := -1
	for i := range progA.Words {
		if progA.Words[i] != progB.Words[i] {
			if patch >= 0 {
				t.Fatal("programs differ in more than one word")
			}
			patch = i
		}
	}
	if patch < 0 {
		t.Fatal("programs are identical")
	}

	r := newRig(t)
	c, err := NewCore(r.k, r.net.Switch(v00()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(progA); err != nil {
		t.Fatal(err)
	}
	r.run(t, 1_000_000, c)
	if got := c.threads[0].Regs[2]; got != 8 {
		t.Fatalf("first pass: r2 = %d, want 8 (add)", got)
	}

	// Patch the add into a sub through the data port (bumps the page
	// generation), restart thread 0 at PC 0 without reloading the
	// image, and re-run: the predecoder must reject its cached entry
	// and decode the new word.
	if err := c.WriteWord(uint32(patch*4), progB.Words[patch]); err != nil {
		t.Fatal(err)
	}
	stale := c.t.DecodeStale
	if err := c.LoadAt(&Program{}, 0); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2_000_000, c)
	if got := c.threads[0].Regs[2]; got != 2 {
		t.Fatalf("after patch: r2 = %d, want 2 (sub); decode cache served a stale entry", got)
	}
	if c.t.DecodeStale == stale {
		t.Errorf("patched word re-decoded without counting a stale entry (stale=%d)", stale)
	}
}

// TestInstrEnergyTable walks every path that sets the supply voltage —
// construction, Retune, SetVoltage, Restore — and requires the table
// chargeInstr adds from to equal energy.InstrEnergy for every class:
// the table is the same expression evaluated once, so dynamicJ accrues
// bit-identically.
func TestInstrEnergyTable(t *testing.T) {
	r := newRig(t)
	c, err := NewCore(r.k, r.net.Switch(v00()), Config{FreqMHz: 71, VDD: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string) {
		t.Helper()
		for class := 0; class < energy.NumInstrClasses; class++ {
			want := energy.InstrEnergy(energy.InstrClass(class), c.Config().VDD)
			if got := c.instrJ[class]; got != want {
				t.Errorf("after %s at %v V: instrJ[%v] = %g, want %g",
					path, c.Config().VDD, energy.InstrClass(class), got, want)
			}
		}
	}
	check("NewCore")
	snap := c.Snapshot()
	if err := c.Retune(Config{FreqMHz: 71, VDD: 0.8}); err != nil {
		t.Fatal(err)
	}
	check("Retune")
	if err := c.SetVoltage(0.65); err != nil {
		t.Fatal(err)
	}
	check("SetVoltage")
	c.Restore(snap)
	if c.Config().VDD != 1.0 {
		t.Fatalf("Restore left VDD at %v", c.Config().VDD)
	}
	check("Restore")
}

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Errorf("%s: recovered %q, want a panic containing %q", name, msg, want)
		}
	}()
	f()
}

// TestUnsettledCorePanics pins the guard on every entry into a core
// from outside its own issue step: while the core holds pre-executed
// slots the group loop has not replayed, its state is ahead of the
// kernel clock and must not be observed or disturbed. Load and LoadAt
// discard the log instead.
func TestUnsettledCorePanics(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), turboLoop)
	snap := c.Snapshot()
	ahead := func() {
		t.Helper()
		c.preexec(c.alignUp(r.k.Now()), sim.Millisecond)
		if c.logTail == 0 {
			t.Fatal("preexec logged nothing")
		}
	}
	ahead()
	for name, f := range map[string]func(){
		"EnergyJ":        func() { c.EnergyJ() },
		"DynamicEnergyJ": func() { c.DynamicEnergyJ() },
		"Snapshot":       func() { c.Snapshot() },
		"Restore":        func() { c.Restore(snap) },
		"Retune":         func() { _ = c.Retune(DefaultConfig()) },
		"SetFrequency":   func() { _ = c.SetFrequency(100) },
		"SetVoltage":     func() { _ = c.SetVoltage(1.0) },
		"Halt":           func() { c.Halt() },
		"kickThread":     func() { c.kickThread(&c.threads[0]) },
		"issueOne":       func() { c.issueOne() },
	} {
		mustPanic(t, name, name+" on core", f)
	}
	for name, f := range map[string]func(){
		"Load":   func() { _ = c.Load(MustAssemble(turboLoop)) },
		"LoadAt": func() { _ = c.LoadAt(MustAssemble(turboLoop), 0x1000) },
	} {
		f()
		if c.logTail != 0 {
			t.Errorf("%s left %d pre-executed slots behind", name, c.logTail-c.logHead)
		}
		c.EnergyJ() // settled again: must not panic
		ahead()
	}
}

// TestReplayMismatchPanics pins the replay assertion: a pre-executed
// slot reached at any time but the one it was logged for means the core
// was re-timed behind its back, and the batch must not go on. A round
// step asks it of every member of the ring at once, and names the one.
func TestReplayMismatchPanics(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), turboLoop)
	c.preexec(c.alignUp(r.k.Now())+c.clk.Period(), sim.Millisecond)
	mustPanic(t, "replay", "pre-executed it for", func() { r.k.RunFor(sim.Microsecond) })

	s := stageRing(t, 1000, 1000, 1)
	late := s.cores[len(s.cores)-1]
	s.g.q[(s.g.tail-1)&uint(len(s.g.q)-1)].when = s.now
	mustPanic(t, "rounds", fmt.Sprintf("core %v is due its issue slot at %v but pre-executed it for %v", late.node, s.now, s.now+s.period),
		func() { s.g.rounds(s.cores[0], s.now, len(s.cores)-1, s.limit) })
}

// stagedRing is a slice's turbo group arranged by hand as replay finds
// it mid-batch with sixteen dense cores in step: cores[0]'s slot in
// hand at now, the other fifteen in the ring at the same time, every
// core holding a pre-executed window that begins at its slot.
type stagedRing struct {
	g          *turboGroup
	cores      []*Core
	now, limit sim.Time
	period     sim.Time
}

// stageRing builds a stagedRing whose cores each hold a window of held
// slots — as if the limit it was pre-executed under lay that far out —
// and whose limit now lies room periods and a bit after now; the last
// core's window and ring time begin lag periods after the others'.
func stageRing(t *testing.T, held, room, lag int64) stagedRing {
	t.Helper()
	r := newRig(t)
	cores := r.group(t, turboLoop4)
	r.k.RunFor(2 * sim.Microsecond) // past the spawns; logs are empty again
	c := cores[0]
	s := stagedRing{g: c.turbo, cores: cores, period: c.clk.Period()}
	s.now = c.alignUp(r.k.Now()) + c.clk.Cycles(8)
	s.limit = s.now + c.clk.Cycles(room) + 17
	for i, c := range cores {
		at := s.now
		if i == len(cores)-1 {
			at += c.clk.Cycles(lag)
		}
		c.t = TurboStats{}
		c.preexec(at, at+c.clk.Cycles(held-1)+17)
		if got := c.logged(); got != int(held) || c.logTail != 1 {
			t.Fatalf("core %v: a dense window of %d slots logged %d slots in %d runs, want one run", c.node, held, got, c.logTail)
		}
		if i > 0 {
			s.g.push(c, at)
		}
	}
	return s
}

// state renders what a round step may move: the ring and every log.
func (s stagedRing) state() string {
	var b strings.Builder
	for i := s.g.head; i != s.g.tail; i++ {
		e := s.g.q[i&uint(len(s.g.q)-1)]
		fmt.Fprintf(&b, "%v@%d ", e.c.node, e.when)
	}
	for _, c := range s.cores {
		fmt.Fprintf(&b, "| %d:%d@%d %v %d/%d/%d ", c.logHead, c.logTail, c.logAt, c.log[0], c.t.PreexecSlots, c.t.ReplayedSlots, c.t.RoundSlots)
	}
	return b.String()
}

// TestRoundStep drives turboGroup.rounds on a hand-built ring: a step
// retires min(run left in the shortest log, room under limit, room under
// the batch cap) whole turns, logs that empty are accounted and given a
// fresh window from the time the ring holds for them, and every
// condition under which the ring might do anything but rotate refuses
// the step and leaves all as it was.
func TestRoundStep(t *testing.T) {
	const m = 16
	// capTurns is how many whole turns fit under the batch cap from a
	// batch slots slots long: each of their m·turns trips through
	// replay's slot loop has to pass slots+1 < turboBatchCap.
	capTurns := func(slots int) int64 { return int64((turboBatchCap - 1 - slots) / m) }
	// far is more periods than any other bound in a case leaves room for.
	far := 2 * capTurns(0)

	t.Run("tail at now + period", func(t *testing.T) {
		// One period out the last member is still the tail every push
		// lands behind (a tie keeps insertion order): the step goes.
		s := stageRing(t, far, far, 1)
		want := capTurns(m - 1)
		if now, n := s.g.rounds(s.cores[0], s.now, m-1, s.limit); now != s.now+sim.Time(want)*s.period || n != int(want)*m {
			t.Errorf("rounds = (%v, %d), want every turn the cap leaves room for: (%v, %d)", now, n, s.now+sim.Time(want)*s.period, int(want)*m)
		}
	})
	for _, tc := range []struct {
		name  string
		held  int64  // slots in each member's log
		room  int64  // periods from now to limit
		slots int    // the batch's slot count at the step
		binds string // which bound the step has to stop at
	}{
		// A whole window: every log empties on the last turn and is
		// refilled up to limit.
		{"window", 40, far, m - 1, "run"},
		// Logs hold six slots; the sixth's successor would lie beyond limit.
		{"limit", 6, 5, m - 1, "limit"},
		{"limit with longer logs", 40, 5, m - 1, "limit"},
		// The cap's slot is the 16th of a fourth turn ...
		{"cap", far, far, turboBatchCap - 1 - 3*m, "cap"},
		// ... and now of the third.
		{"cap, one slot on", far, far, turboBatchCap - 1 - 3*m + 1, "cap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := stageRing(t, tc.held, tc.room, 0)
			turns := min(tc.held, tc.room, capTurns(tc.slots))
			if bound := map[string]int64{"run": tc.held, "limit": tc.room, "cap": capTurns(tc.slots)}[tc.binds]; bound != turns {
				t.Fatalf("the case is meant to stop at its %s bound of %d turns, but the least bound is %d", tc.binds, bound, turns)
			}
			now, n := s.g.rounds(s.cores[0], s.now, tc.slots, s.limit)
			span := sim.Time(turns) * s.period
			if now != s.now+span || n != int(turns)*m {
				t.Fatalf("rounds = (%v, %d), want (%v, %d): %d turns", now, n, s.now+span, int(turns)*m, turns)
			}
			if got := roundSlots(s.cores); got != uint64(n) || s.cores[0].t.RoundSlots != uint64(n) {
				t.Errorf("RoundSlots = %d, all of it on the core in hand: %v; want %d", got, s.cores[0].t.RoundSlots == got, n)
			}
			for i, c := range s.cores {
				if i > 0 {
					if e := s.g.q[(s.g.head+uint(i-1))&uint(len(s.g.q)-1)]; e.c != c || e.when != now {
						t.Errorf("ring slot %d holds core %v at %v, want core %v at %v", i-1, e.c.node, e.when, c.node, now)
					}
				}
				// (ReplayedSlots is replay's to count, for every slot it goes
				// through, these included.)
				if turns < tc.held {
					if c.logTail != 1 || c.logged() != int(tc.held-turns) {
						t.Errorf("core %v: %d slots left in %d runs; want %d left of its one run",
							c.node, c.logged(), c.logTail-c.logHead, tc.held-turns)
					}
				} else if fresh := int(tc.room - turns + 1); c.logTail != 1 || c.logged() != fresh || c.t.PreexecSlots != uint64(int(tc.held)+fresh) {
					t.Errorf("core %v: %d slots logged in %d runs, %d pre-executed in all; want a fresh window of %d slots up to limit after the %d replayed",
						c.node, c.logged(), c.logTail-c.logHead, c.t.PreexecSlots, fresh, tc.held)
				}
				if at := c.logAt; at != now {
					t.Errorf("core %v: log resumes at %v, want %v", c.node, at, now)
				}
			}
		})
	}

	for _, tc := range []struct {
		name      string
		room, lag int64
		slots     int
		upset     func(s *stagedRing)
	}{
		{"nothing under limit", 0, 0, m - 1, func(s *stagedRing) {}},
		{"limit behind now", 3, 0, m - 1, func(s *stagedRing) { s.limit = s.now - 1 }},
		{"nothing under the cap", far, 0, turboBatchCap - m, func(s *stagedRing) {}},
		{"empty ring", far, 0, m - 1, func(s *stagedRing) { s.g.tail = s.g.head }},
		{"member with nothing logged", far, 0, m - 1, func(s *stagedRing) { s.cores[7].logHead, s.cores[7].logTail = 0, 0 }},
		{"member on another clock", far, 0, m - 1, func(s *stagedRing) { s.cores[7].clk = sim.NewClock(400) }},
		{"member off its grid next", far, 0, m - 1, func(s *stagedRing) { s.cores[7].log[0].gap += s.period }},
		{"core in hand off its grid next", far, 0, m - 1, func(s *stagedRing) { s.cores[0].log[0].gap += s.period }},
		{"member with another block", far, 0, m - 1, func(s *stagedRing) { s.cores[7].log[0].left, s.cores[7].log[0].n = 2, 2 }},
		{"core in hand asleep after its block", far, 0, m - 1, func(s *stagedRing) { s.cores[0].log[0] = preRun{gap: -1, left: 1, n: 1, reps: 1} }},
		{"a member's slot still the kernel's", far, 0, m - 1, func(s *stagedRing) { s.g.kw = &s.cores[15].issueFire }},
		// The last member sits two periods out, with a window that begins
		// there: the push of the slot in hand would land ahead of it, not
		// at the tail. One period out it is the tail, and the step goes.
		{"tail beyond now + period", far, 2, m - 1, func(s *stagedRing) {}},
		{"head behind now", far, 0, m - 1, func(s *stagedRing) { s.now += s.period }},
	} {
		t.Run("refuses: "+tc.name, func(t *testing.T) {
			s := stageRing(t, tc.room+1, tc.room, tc.lag)
			tc.upset(&s)
			before := s.state()
			if now, n := s.g.rounds(s.cores[0], s.now, tc.slots, s.limit); now != s.now || n != 0 {
				t.Errorf("rounds = (%v, %d), want a refusal (%v, 0)", now, n, s.now)
			}
			if after := s.state(); after != before {
				t.Errorf("a refused step changed something\nbefore %s\n after %s", before, after)
			}
		})
	}
}

// stageThinRing is stageRing with sixteen one-thread cores: each holds a
// window of blocks blocks — an instruction at now, an idle probe a period
// later, the next block four periods on — the first gone of them have had
// their turn at now and stand at the probe, and limit lies room periods
// and a bit after now.
func stageThinRing(t *testing.T, blocks, room int64, gone int) stagedRing {
	t.Helper()
	r := newRig(t)
	cores := r.group(t, turboLoop)
	r.k.RunFor(2 * sim.Microsecond)
	c := cores[0]
	s := stagedRing{g: c.turbo, cores: cores, period: c.clk.Period()}
	s.now = c.alignUp(r.k.Now()) + c.clk.Cycles(8)
	s.limit = s.now + c.clk.Cycles(room) + 17
	for _, c := range cores {
		c.t = TurboStats{}
		c.preexec(s.now, s.now+c.clk.Cycles(4*blocks-1))
		if want := (preRun{gap: 3 * s.period, left: 2, n: 2, reps: int(blocks)}); c.logTail != 1 || c.log[0] != want {
			t.Fatalf("core %v: log = %+v, want the one run %+v", c.node, c.log[:c.logTail], want)
		}
	}
	// The ring holds the members that have not had their turn, then those
	// that have: the order the slot loop leaves them in.
	for i, c := range cores[1:] {
		if i >= gone {
			s.g.push(c, s.now)
		}
	}
	for _, c := range cores[1 : 1+gone] {
		s.g.push(c, c.pop())
	}
	return s
}

// TestRoundStepBlocks drives turboGroup.rounds on a ring of one-thread
// cores, whose slots fall two to a block of four periods: a step retires
// whole blocks — as many as the member with the fewest holds, limit and
// the cap leave room for — from wherever in the block the slot in hand
// stands, members a slot on included, and a member at any other place is
// refused.
func TestRoundStepBlocks(t *testing.T) {
	const m, n, stride = 16, 2, 4
	for _, tc := range []struct {
		name         string
		blocks, room int64
		gone, slots  int
		// ahead pops the core in hand's instruction first: the step is
		// asked for from the probe, and now is a period later.
		ahead bool
		want  int64 // blocks retired
	}{
		{"every log whole: the window", 10, 1000, 0, m - 1, false, 10},
		{"members that have had their turn keep a block's end", 10, 1000, 3, m - 1, false, 9},
		{"from the probe, the others a slot on in the next block", 10, 1000, m - 1, m - 1, true, 9},
		{"limit", 10, 2*stride + 3, 0, m - 1, false, 2},
		{"limit on a block's first slot", 10, 3 * stride, 0, m - 1, false, 3},
		{"cap", 1000, 100_000, 0, turboBatchCap - 1 - 3*m*n, false, 3},
		{"cap, one slot on", 1000, 100_000, 0, turboBatchCap - 3*m*n, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := stageThinRing(t, tc.blocks, tc.room, tc.gone)
			cur, now := s.cores[0], s.now
			if tc.ahead {
				now = cur.pop()
				mask := uint(len(s.g.q) - 1)
				for i := s.g.head; i != s.g.tail; i++ {
					// Every member has had this turn and the next.
					e := &s.g.q[i&mask]
					e.when = e.c.pop()
				}
			}
			span := sim.Time(tc.want*stride) * s.period
			got, slots := s.g.rounds(cur, now, tc.slots, s.limit)
			if got != now+span || slots != int(tc.want)*m*n {
				t.Fatalf("rounds = (%v, %d), want %d blocks: (%v, %d)", got, slots, tc.want, now+span, int(tc.want)*m*n)
			}
			if rs := roundSlots(s.cores); rs != uint64(slots) {
				t.Errorf("RoundSlots = %d, want %d", rs, slots)
			}
			// Every log resumes where the ring, or the slot in hand, says:
			// in the window it held, if blocks of it are left, else in a
			// fresh one.
			if cur.logTail == 0 || cur.logAt != got {
				t.Errorf("the slot in hand is at %v, its core's log resumes at %v (%d runs)", got, cur.logAt, cur.logTail)
			}
			if left := int64(cur.log[0].reps); tc.want < tc.blocks && left != tc.blocks-tc.want {
				t.Errorf("the core in hand holds %d blocks of its run after %d of %d were retired", left, tc.want, tc.blocks)
			}
			for i := s.g.head; i != s.g.tail; i++ {
				if e := s.g.q[i&uint(len(s.g.q)-1)]; e.c.logTail == 0 || e.when != e.c.logAt {
					t.Errorf("the ring holds core %v at %v, its log resumes at %v (%d runs)", e.c.node, e.when, e.c.logAt, e.c.logTail)
				}
			}
		})
	}
	for _, tc := range []struct {
		name  string
		upset func(s *stagedRing)
	}{
		{"member at another slot of the block", func(s *stagedRing) { s.cores[7].log[0].left = 1 }},
		{"member a block on", func(s *stagedRing) {
			c := s.cores[15]
			c.pop()
			s.g.q[(s.g.tail-1)&uint(len(s.g.q)-1)].when = c.pop()
		}},
		{"member with blocks of three", func(s *stagedRing) { s.cores[7].log[0].left, s.cores[7].log[0].n = 3, 3 }},
		{"nothing under limit", func(s *stagedRing) { s.limit = s.now + stride*s.period - 1 }},
		{"the core in hand at its last block's probe", func(s *stagedRing) { s.cores[0].log[0].left, s.cores[0].log[0].reps = 1, 1 }},
	} {
		t.Run("refuses: "+tc.name, func(t *testing.T) {
			s := stageThinRing(t, 10, 1000, 0)
			tc.upset(&s)
			before := s.state()
			if now, n := s.g.rounds(s.cores[0], s.now, m-1, s.limit); now != s.now || n != 0 {
				t.Errorf("rounds = (%v, %d), want a refusal (%v, 0)", now, n, s.now)
			}
			if after := s.state(); after != before {
				t.Errorf("a refused step changed something\nbefore %s\n after %s", before, after)
			}
		})
	}
}

// TestPreexecOnlyInsideUntracedRunUntil pins where cores may run ahead
// of the clock: never under Step or Run, where every return hands the
// host a kernel whose cores it may inspect, and never with a recorder
// attached, whose events carry kernel time. The same slice does
// pre-execute under RunFor, so the zeros mean something.
func TestPreexecOnlyInsideUntracedRunUntil(t *testing.T) {
	const finite = `
	ldc r0, 400
loop:
	add r1, r0, r0
	sub r2, r1, r0
	subi r0, r0, 1
	brt r0, loop
	tend
`
	t.Run("Step", func(t *testing.T) {
		r := newRig(t)
		cores := r.group(t, turboLoop)
		for i := 0; i < 2000; i++ {
			if !r.k.Step() {
				t.Fatal("kernel ran dry")
			}
		}
		if n := preexecSlots(cores); n != 0 {
			t.Errorf("cores pre-executed %d slots under Step", n)
		}
	})
	t.Run("Run", func(t *testing.T) {
		r := newRig(t)
		cores := r.group(t, finite)
		r.k.Run()
		if cores[0].InstrCount < 1600 || !cores[0].Done() {
			t.Fatalf("program did not finish under Run (%d instructions)", cores[0].InstrCount)
		}
		if n := preexecSlots(cores); n != 0 {
			t.Errorf("cores pre-executed %d slots under Run", n)
		}
	})
	t.Run("recorder", func(t *testing.T) {
		r := newRig(t)
		r.k.SetRecorder(trace.NewRecorder(1 << 10))
		cores := r.group(t, turboLoop)
		r.k.RunFor(20 * sim.Microsecond)
		if n := preexecSlots(cores); n != 0 {
			t.Errorf("cores pre-executed %d slots with a recorder attached", n)
		}
	})
	t.Run("RunFor", func(t *testing.T) {
		r := newRig(t)
		cores := r.group(t, turboLoop)
		r.k.RunFor(20 * sim.Microsecond)
		if preexecSlots(cores) == 0 {
			t.Error("a slice of compute loops never pre-executed under RunFor")
		}
		for _, c := range cores {
			if c.logTail != 0 {
				t.Errorf("core %v returned from RunFor with %d slots not replayed", c.node, c.logTail-c.logHead)
			}
		}
	})
}

// TestWakeableCoreNeverPreexecs pins the second soundness condition: a
// core with a thread parked on a channel end or on the reference clock
// can be re-timed by an outside event at any moment, so however long
// its other threads compute it never runs ahead — while its siblings in
// the same group do.
func TestWakeableCoreNeverPreexecs(t *testing.T) {
	const parked = `
	getst r1, waiter
	ldc   r2, 0xE800
	tsetr r1, 12, r2
	tstart r1
	getst r1, sleeper
	ldc   r2, 0xE000
	tsetr r1, 12, r2
	tstart r1
	ldc r0, 7
loop:
	add r1, r0, r0
	sub r2, r1, r0
	bru loop
waiter:
	getr r0, 2
	in   r0, r1       ; never fed
	tend
sleeper:
	time r1
	ldc  r2, 10000000
	add  r1, r1, r2
	twait r1
	tend
`
	r := newRig(t)
	cores := r.group(t, turboLoop)
	if err := cores[0].Load(MustAssemble(parked)); err != nil {
		t.Fatal(err)
	}
	r.k.RunFor(20 * sim.Microsecond)
	c := cores[0]
	if c.threads[1].State != TBlockedChan || c.threads[2].State != TBlockedTime || c.InstrCount < 1000 {
		t.Fatalf("setup: thread states %v/%v after %d instructions, want blocked-chan/blocked-time beside a computing thread",
			c.threads[1].State, c.threads[2].State, c.InstrCount)
	}
	if c.t.PreexecSlots != 0 {
		t.Errorf("core with parked threads pre-executed %d slots", c.t.PreexecSlots)
	}
	if preexecSlots(cores[1:]) == 0 {
		t.Error("its compute-only siblings never pre-executed")
	}
}

// TestTrapInsidePreexecutedWindow runs a slice in which one core's only
// thread traps after a few hundred compute instructions — deep inside a
// window it pre-executed — while fifteen siblings carry on, and holds
// the result to the slow path's: the trap slot must end its batch and
// re-arm the core exactly as the trap itself would have.
func TestTrapInsidePreexecutedWindow(t *testing.T) {
	const trapping = `
	ldc r0, 150
loop:
	add  r1, r1, r0
	xor  r2, r2, r1
	subi r0, r0, 1
	brt  r0, loop
	ldc  r3, 2
	ldw  r4, r3, r0   ; byte address 2: traps
	tend
`
	type outcome struct {
		now        sim.Time
		seq, fired uint64
		pending    int
		instrs     []uint64
		idle       []uint64
		trap       string
	}
	run := func(turbo bool) (outcome, []*Core) {
		r := newRig(t)
		r.exact = !turbo
		cores := r.group(t, turboLoop)
		if err := cores[5].Load(MustAssemble(trapping)); err != nil {
			t.Fatal(err)
		}
		r.k.RunFor(5 * sim.Microsecond)
		o := outcome{now: r.k.Now(), seq: r.k.Seq(), fired: r.k.Fired(), pending: r.k.Pending()}
		for _, c := range cores {
			o.instrs = append(o.instrs, c.InstrCount)
			o.idle = append(o.idle, c.IdleSlots)
		}
		if err := cores[5].Trapped(); err != nil {
			o.trap = err.Error()
		}
		return o, cores
	}
	slow, _ := run(false)
	fast, cores := run(true)
	if slow.trap == "" {
		t.Fatal("the trapping core did not trap")
	}
	if fmt.Sprint(slow) != fmt.Sprint(fast) {
		t.Errorf("turbo diverges from the slow path\n slow %+v\nturbo %+v", slow, fast)
	}
	// The trap has to have happened ahead of the clock for this test to
	// mean anything: the core pre-executed right up to it (603
	// instructions, each followed by an idle probe).
	if got := cores[5].t.PreexecSlots; got < 1000 {
		t.Errorf("trapping core pre-executed %d slots; the trap was not inside a pre-executed window", got)
	}
}

// TestPreexecutedSlotsCannotOutliveRunUntil pins the other half of the
// first soundness condition: slots are logged within the deadline of
// the RunUntil that pre-executed them, so a batch that may not run
// ahead itself — here one driven by Step — never finds any.
func TestPreexecutedSlotsCannotOutliveRunUntil(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), turboLoop)
	c.preexec(c.alignUp(r.k.Now()), sim.Millisecond)
	mustPanic(t, "Step", "outside the untraced RunUntil", func() { r.k.Step() })
}

// TestPreexecStopsBeforeCommunicationPick runs six threads per core,
// each reaching a (non-blocking) communication instruction every three
// hundred compute instructions, so that pre-executed runs keep ending
// at a communication pick with other threads ready in the same slot —
// and the pick has to be undone exactly, or the thread rotation slips
// for one round. The slice is cut every few cycles, at every phase, and
// every thread's PC, registers and instruction count held to the slow
// path's.
func TestPreexecStopsBeforeCommunicationPick(t *testing.T) {
	var src strings.Builder
	for i := 1; i <= 5; i++ {
		fmt.Fprintf(&src, "getst r1, work\nldc r2, %d\ntsetr r1, 12, r2\ntstart r1\n", 0xF000-i*0x800)
	}
	src.WriteString("work:\n\tgettid r6\n\taddi r6, r6, 3\nloop:\n")
	for i := 0; i < 150; i++ {
		src.WriteString("\tadd r1, r1, r6\n\txor r2, r2, r1\n")
	}
	src.WriteString("\tgettid r5\n\tbru loop\n")

	state := func(cores []*Core) string {
		var b strings.Builder
		for _, c := range cores[:2] {
			for i := range c.threads {
				th := &c.threads[i]
				fmt.Fprintf(&b, "%v:%d@%d#%d%v ", c.node, i, th.PC, th.Instrs, th.Regs[:7])
			}
		}
		return b.String()
	}
	run := func(turbo bool) ([]string, uint64) {
		r := newRig(t)
		r.exact = !turbo
		cores := r.group(t, src.String())
		var cuts []string
		for i := 0; i < 1500; i++ {
			r.k.RunFor(cores[0].clk.Cycles(int64(1 + i*7%41)))
			cuts = append(cuts, fmt.Sprintf("seq=%d fired=%d %s", r.k.Seq(), r.k.Fired(), state(cores)))
		}
		return cuts, preexecSlots(cores)
	}
	slow, _ := run(false)
	fast, ahead := run(true)
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("cut %d: turbo diverges from the slow path\n slow %s\nturbo %s", i, slow[i], fast[i])
		}
	}
	if ahead == 0 {
		t.Error("no core pre-executed; the cuts tested nothing")
	}
}

// TestForeignEventSeesSettledCores arms a periodic foreign timer that
// reads every core's energy and instruction count — on the cores' slot
// grid, so it ties with issue slots, and off it — while the slice
// pre-executes. Every logged slot must have been replayed before the
// timer fires (EnergyJ panics otherwise), none at or past its time may
// have been run, and the readings must be the slow path's.
func TestForeignEventSeesSettledCores(t *testing.T) {
	run := func(turbo bool, every sim.Time) ([]string, uint64) {
		r := newRig(t)
		r.exact = !turbo
		cores := r.group(t, turboLoop)
		var seen []string
		var tick *sim.Timer
		tick = r.k.NewTimer(func() {
			s := fmt.Sprintf("t=%d seq=%d", r.k.Now(), r.k.Seq())
			for _, c := range cores {
				s += fmt.Sprintf(" %d/%x/%d", c.InstrCount, math.Float64bits(c.EnergyJ()), c.LastIssue)
			}
			seen = append(seen, s)
			tick.ArmAfter(every)
		})
		tick.ArmAfter(every)
		r.k.RunFor(40 * sim.Microsecond)
		return seen, preexecSlots(cores)
	}
	for _, every := range []sim.Time{150 * 2000, 150*2000 + 777} {
		slow, _ := run(false, every)
		fast, ahead := run(true, every)
		if len(slow) != len(fast) {
			t.Fatalf("timer fired %d times on the slow path, %d with turbo", len(slow), len(fast))
		}
		for i := range slow {
			if slow[i] != fast[i] {
				t.Fatalf("firing %d (every %v): turbo diverges\n slow %s\nturbo %s", i, every, slow[i], fast[i])
			}
		}
		if ahead == 0 {
			t.Errorf("every %v: no core pre-executed", every)
		}
	}
}
