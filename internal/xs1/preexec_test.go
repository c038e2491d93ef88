package xs1

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"swallow/internal/energy"
	"swallow/internal/sim"
)

// refSlot is one issue slot as the per-slot log the run-length log
// replaced recorded it: the time it occupies and the time of the core's
// next slot.
type refSlot struct{ at, next sim.Time }

// refPreexec is that log's writer, kept as the reference the run-length
// log is held to: the same slot step as Core.preexec, one (at, next)
// pair appended per slot, at most most of them.
func refPreexec(c *Core, at, limit sim.Time, most int) []refSlot {
	period := c.clk.Period()
	depth := c.clk.Cycles(PipelineDepth)
	var log []refSlot
	for len(log) < most && at <= limit {
		off := c.rrOff
		th := c.pickReady(at)
		var next sim.Time = -1
		if th == nil {
			c.IdleSlots++
			if t := c.earliestReadyTime(); t >= 0 {
				next = c.alignUp(t)
			}
		} else {
			e, hit := c.fetch(th)
			if e != nil && e.class == uint8(energy.ClassComm) {
				c.rrOff = off
				if hit {
					c.t.DecodeHits--
				}
				break
			}
			if e != nil {
				if c.run(th, &e.in, uint32(e.words), at) {
					c.chargeInstr(th, energy.InstrClass(e.class), at)
				}
				c.t.BatchedInstrs++
			}
			if th.State == TReady {
				th.nextReady = max(th.nextReady, at+depth)
			}
			next = at + period
			if e == nil || th.State == TTrapped {
				next = slotTrapped
			}
		}
		log = append(log, refSlot{at: at, next: next})
		if next < 0 {
			break
		}
		at = next
	}
	return log
}

// coreState renders everything a window may have moved in a core: its
// architectural state and the counters of the fast path's own work.
func coreState(c *Core) string {
	return fmt.Sprintf("hits=%d batched=%d %s", c.t.DecodeHits, c.t.BatchedInstrs, archState(c))
}

// archState renders a core's architectural state, which the exact
// pipeline has to agree with: the counters, the rotation, the energy
// bits and every live thread.
func archState(c *Core) string {
	var b strings.Builder
	fmt.Fprintf(&b, "instrs=%d idle=%d last=%d classes=%v rr=%v+%d dyn=%x",
		c.InstrCount, c.IdleSlots, c.LastIssue, c.ClassCounts, c.rr, c.rrOff, math.Float64bits(c.dynamicJ))
	for i := range c.threads {
		th := &c.threads[i]
		if th.State != TFree {
			fmt.Fprintf(&b, " t%d:%v@%d#%d>%d%v", i, th.State, th.PC, th.Instrs, th.nextReady, th.Regs)
		}
	}
	return b.String()
}

// rotationEnds are four-thread programs whose fixed rotation (Core.rotate)
// ends in each way it can, at a thread other than the first: thread 0
// sets off a divide, or stores into the code page the others execute from
// (a word of their loop over another, which they must re-decode); thread 2
// traps on a load, which does not issue, or on a misaligned branch, which
// does; thread 3 reaches a communication instruction. Each instruction
// that ends a rotation has issued before, so the predecode cache holds it
// and the rotation, not a miss, meets it.
var rotationEnds = []struct{ name, src string }{
	{"a divide joins mid-rotation", spawned("alu", "alu", "alu") + `
	ldc  r6, 7
again:
	ldc  r0, 40
spin:
	subi r0, r0, 1
	brt  r0, spin
	divu r4, r6, r6
	bru  again
` + aluLoop},
	{"a store into the executing code page", spawned("alu", "alu", "alu") + `
	ldc  r9, @src
	ldwi r8, r9, 0
	ldc  r9, @patch
again:
	ldc  r0, 40
spin:
	subi r0, r0, 1
	brt  r0, spin
	stwi r8, r9, 0
	bru  again
alu:
patch:
	add r1, r0, r0
src:
	sub r2, r1, r0
	bru alu
`},
	{"a bad load traps thread 2, uncharged", spawned("alu", "bad", "alu") + "\tbru alu\n" + aluLoop + `
bad:
	ldc  r7, 0xF060   ; the 1000th word on is past the end of SRAM
	ldc  r0, 0
badloop:
	ldw  r4, r7, r0
	addi r0, r0, 1
	bru  badloop
`},
	{"a misaligned branch traps thread 2, charged", spawned("alu", "bad", "alu") + "\tbru alu\n" + aluLoop + `
bad:
	ldc  r0, 1000
	ldc  r5, @badloop
badloop:
	subi r0, r0, 1
	eq   r6, r0, r8
	shli r6, r6, 1    ; 2 once r0 is down to 0
	add  r7, r5, r6
	bau  r7
`},
	{"a communication instruction in thread 3 of 4", spawned("alu", "alu", "talk") + "\tbru alu\n" + aluLoop + `
talk:
	ldc  r0, 50
tspin:
	subi r0, r0, 1
	brt  r0, tspin
	gettid r5
	bru  talk
`},
}

// TestRunLengthLogMatchesPerSlotLog pre-executes one window on a core
// and, on its twin, logs the same window slot by slot with the logger
// the run-length log replaced; the log popped slot by slot has to be
// that sequence, and the cores have to end in the same state. Each case
// is a way a run begins or ends: an instruction every slot, idle probes
// that skip ahead, a divider stall, a trap, a communication instruction,
// and limit falling on and off the slot grid.
func TestRunLengthLogMatchesPerSlotLog(t *testing.T) {
	const divider = `
	getst r1, alu
	ldc   r2, 0xE800
	tsetr r1, 12, r2
	tstart r1
	ldc r0, 100000
	ldc r3, 7
divloop:
	divu r4, r0, r3
	add  r5, r5, r4
	subi r0, r0, 1
	brt  r0, divloop
	tend
alu:
	add r1, r0, r0
	sub r2, r1, r0
	bru alu
`
	const trapping = `
	ldc r0, 9
loop:
	add  r1, r1, r0
	subi r0, r0, 1
	brt  r0, loop
	ldc  r3, 2
	ldw  r4, r3, r0   ; byte address 2: traps
	tend
`
	const talking = `
	ldc r0, 9
loop:
	add  r1, r1, r0
	subi r0, r0, 1
	brt  r0, loop
	gettid r5
	bru loop
`
	// first is the thread the window's first slot fell to.
	var first int
	// rotated wants the window run in the fixed rotation, n slots or more.
	rotated := func(t *testing.T, c *Core, n int) {
		t.Helper()
		if c.t.RotationSlots < uint64(n) {
			t.Errorf("%d slots of %d in the rotation, want at least %d", c.t.RotationSlots, c.logged(), n)
		}
	}
	// trapped wants thread id trapped in the rotation, not at its start.
	trapped := func(t *testing.T, c *Core, id int) {
		t.Helper()
		if e := c.log[c.logTail-1]; e.gap != slotTrapped || c.threads[id].State != TTrapped || first == id {
			t.Errorf("last run %+v, thread %d %v, window from thread %d; want thread %d trapped in the rotation",
				e, id, c.threads[id].State, first, id)
		}
		rotated(t, c, 1000)
	}
	ends := map[string]func(t *testing.T, c *Core, period sim.Time){
		"a divide joins mid-rotation": func(t *testing.T, c *Core, period sim.Time) {
			rotated(t, c, 100)
			if c.t.RotationSlots == uint64(c.logged()) {
				t.Error("every slot in the rotation, want the divides to break it")
			}
		},
		"a store into the executing code page": func(t *testing.T, c *Core, period sim.Time) {
			rotated(t, c, 100)
			if c.t.DecodeStale == 0 {
				t.Error("no entry re-decoded after the stores into the code page")
			}
		},
		"a bad load traps thread 2, uncharged":        func(t *testing.T, c *Core, period sim.Time) { trapped(t, c, 2) },
		"a misaligned branch traps thread 2, charged": func(t *testing.T, c *Core, period sim.Time) { trapped(t, c, 2) },
		"a communication instruction in thread 3 of 4": func(t *testing.T, c *Core, period sim.Time) {
			rotated(t, c, 100)
			th := &c.threads[3]
			if e := c.icached(th.PC); e == nil || e.in.Op != OpGETTID || th.Instrs == 0 {
				t.Errorf("thread 3 stands at %#x after %d instructions, want it at gettid", th.PC, th.Instrs)
			}
		},
	}
	type windowCase struct {
		name, src string
		// warm is how long the core runs before the window — a picosecond
		// short of a slot, for the window to begin at that slot — and limit
		// how far past its first slot the window may go.
		warm, limit sim.Time
		// mhz retunes the core before it runs, if not zero.
		mhz float64
		// check looks at the shape of the log the window left.
		check func(t *testing.T, c *Core, period sim.Time)
	}
	cases := []windowCase{
		{"one thread: instruction, idle probe, three periods skipped", turboLoop, 2*sim.Microsecond - 1, sim.Millisecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				// 125 000 blocks of two slots, four periods from one to the
				// next, in one run, and the instruction that falls on limit.
				body, tail := preRun{gap: 3 * period, left: 2, n: 2, reps: 125_000}, preRun{gap: period, left: 1, n: 1, reps: 1}
				if c.logTail != 2 || c.log[0] != body || c.log[1] != tail {
					t.Errorf("log = %+v, want %+v and %+v", c.log[:c.logTail], body, tail)
				}
			}},
		{"one thread, from the probe: the part block folds into the run", turboLoop, 2*sim.Microsecond + 1, 99 * 2 * sim.Nanosecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				// The probe, 24 whole blocks, and the instruction at limit.
				body, tail := preRun{gap: 3 * period, left: 1, n: 2, reps: 25}, preRun{gap: period, left: 1, n: 1, reps: 1}
				if c.logTail != 2 || c.log[0] != body || c.log[1] != tail {
					t.Errorf("log = %+v, want %+v and %+v", c.log[:c.logTail], body, tail)
				}
			}},
		{"two threads: two instructions, idle probe, two periods skipped", turboLoop2, 2*sim.Microsecond - 1, 100 * 2 * sim.Nanosecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				if e := c.log[0]; c.logTail > 2 || e.n != 3 || e.gap != 2*period || e.reps < 24 {
					t.Errorf("log = %+v, want blocks of three slots and a two-period gap in one run, and a tail", c.log[:c.logTail])
				}
			}},
		{"three threads: the probe's slot stays on the grid", turboLoopOn(3), 2*sim.Microsecond - 1, 999 * 2 * sim.Nanosecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				if want := (preRun{gap: period, left: 1, n: 1, reps: 1000}); c.logTail != 1 || c.log[0] != want || c.IdleSlots == 0 {
					t.Errorf("log = %+v in %d runs after %d idle probes, want 1000 slots a period apart, probes among them: %+v", c.log[0], c.logTail, c.IdleSlots, want)
				}
			}},
		{"one thread at 400 MHz", turboLoop, 2*sim.Microsecond - 1, 20 * sim.Microsecond, 400,
			func(t *testing.T, c *Core, period sim.Time) {
				if e := c.log[0]; period != 2500 || c.logTail > 2 || e.n != 2 || e.gap != 3*period || e.reps != 2000 {
					t.Errorf("log = %+v on a period of %v, want 2000 blocks of two slots and three periods' gap in one run", c.log[:c.logTail], period)
				}
			}},
		{"four threads: one run to limit", turboLoop4, 2 * sim.Microsecond, 999*2*sim.Nanosecond + 17, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				if want := (preRun{gap: period, left: 1, n: 1, reps: 1000}); c.logTail != 1 || c.log[0] != want {
					t.Errorf("log = %+v in %d runs, want 1000 slots a period apart: %+v", c.log[0], c.logTail, want)
				}
			}},
		{"limit on the grid: its slot runs", turboLoop4, 2 * sim.Microsecond, 40 * 2 * sim.Nanosecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				if c.logTail != 1 || c.logged() != 41 {
					t.Errorf("log = %+v in %d runs, want one run of 41 slots", c.log[0], c.logTail)
				}
			}},
		{"limit one short of the grid: its slot does not", turboLoop4, 2 * sim.Microsecond, 40*2*sim.Nanosecond - 1, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				if c.logTail != 1 || c.logged() != 40 {
					t.Errorf("log = %+v in %d runs, want one run of 40 slots", c.log[0], c.logTail)
				}
			}},
		{"limit inside a run of a one-thread core", turboLoop, 2*sim.Microsecond - 1, 8 * 2 * sim.Nanosecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				// Slots at 0 and 1, 4 and 5, and 8: two blocks, and the
				// instruction of a third, which stays on the grid.
				body, tail := preRun{gap: 3 * period, left: 2, n: 2, reps: 2}, preRun{gap: period, left: 1, n: 1, reps: 1}
				if c.logTail != 2 || c.log[0] != body || c.log[1] != tail {
					t.Errorf("log = %+v, want %+v and %+v", c.log[:c.logTail], body, tail)
				}
			}},
		{"divider stall beside an ALU thread", divider, 2 * sim.Microsecond, 600 * 2 * sim.Nanosecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				long, folded := 0, 0
				for _, e := range c.log[:c.logTail] {
					if e.n > 2 {
						long++
					}
					if e.reps > 1 {
						folded++
					}
				}
				if c.logTail < 2 || long == 0 || folded == 0 {
					t.Errorf("%d runs, %d of blocks longer than two slots, %d of more than one block; want several runs of mixed shape", c.logTail, long, folded)
				}
			}},
		{"trap mid-window", trapping, 0, sim.Millisecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				if e := c.log[c.logTail-1]; e.gap != slotTrapped || e.reps != 1 {
					t.Errorf("last run = %+v, want one block that ends in the trap sentinel", e)
				}
				if c.Trapped() == nil {
					t.Error("the core did not trap inside the window")
				}
			}},
		{"communication instruction ends the window", talking, 0, sim.Millisecond, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				// The last slot before gettid is an idle probe that skips to
				// the slot gettid will issue in.
				if e := c.log[c.logTail-1]; e.gap < 0 || c.InstrCount > 40 {
					t.Errorf("last run = %+v after %d instructions, want the window to stop at gettid with the core awake", e, c.InstrCount)
				}
			}},
		{"eight threads: limit mid-lap", turboLoopOn(8), 2 * sim.Microsecond, 37*2*sim.Nanosecond + 17, 0,
			func(t *testing.T, c *Core, period sim.Time) {
				if c.logTail != 1 || c.logged() != 38 {
					t.Errorf("log = %+v in %d runs, want one run of 38 slots", c.log[0], c.logTail)
				}
				rotated(t, c, 38)
			}},
	}
	for _, e := range rotationEnds {
		cases = append(cases, windowCase{e.name, e.src, 2 * sim.Microsecond, 60 * sim.Microsecond, 0, ends[e.name]})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*rig, *Core) {
				r := newRig(t)
				c := r.core(t, v00(), tc.src)
				if tc.mhz != 0 {
					if err := c.SetFrequency(tc.mhz); err != nil {
						t.Fatal(err)
					}
				}
				r.k.RunFor(tc.warm)
				c.t = TurboStats{}
				return r, c
			}
			r, c := build()
			_, twin := build()
			at := c.alignUp(r.k.Now())
			period := c.clk.Period()

			first = c.rr[c.rrOff]
			c.preexec(at, at+tc.limit)
			if c.logTail == 0 {
				t.Fatal("the window logged nothing")
			}
			want := refPreexec(twin, at, at+tc.limit, c.logged())
			if got, want := coreState(c), coreState(twin); got != want {
				t.Errorf("cores differ after the window\n  run-length %s\n    per-slot %s", got, want)
			}
			if int(c.t.PreexecSlots) != len(want) {
				t.Errorf("PreexecSlots = %d, the per-slot log holds %d", c.t.PreexecSlots, len(want))
			}
			tc.check(t, c, period)

			for i, w := range want {
				if c.logTail == 0 {
					t.Fatalf("the log emptied after %d slots, the per-slot log holds %d", i, len(want))
				}
				at := c.logAt
				next := c.pop()
				if at != w.at || next != w.next {
					t.Fatalf("slot %d pops as (at %v, next %v), the per-slot log has (%v, %v)", i, at, next, w.at, w.next)
				}
			}
			if c.logTail != 0 {
				t.Errorf("after %d pops %d slots are left", len(want), c.logged())
			}
		})
	}
}

// TestLoneCoreRotationMatchesExact holds the lone-core loop's rotation to
// the exact pipeline: a core alone on its kernel runs each rotation end,
// and the one- to eight-thread loops, beside a twin on the exact pipeline,
// cut at uneven points; at every cut the cores and the kernels' clock,
// sequence and firing counts must agree.
func TestLoneCoreRotationMatchesExact(t *testing.T) {
	progs := append([]struct{ name, src string }{}, rotationEnds...)
	for _, n := range []int{1, 2, 3, 4, 8} {
		progs = append(progs, struct{ name, src string }{fmt.Sprint(n, " threads"), turboLoopOn(n)})
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			fast, slow := newRig(t), newRig(t)
			slow.exact = true
			c, twin := fast.core(t, v00(), p.src), slow.core(t, v00(), p.src)
			for i := 0; fast.k.Now() < 60*sim.Microsecond; i++ {
				cut := sim.Time(1+(i*7919)%1500) * sim.Nanosecond
				fast.k.RunFor(cut)
				slow.k.RunFor(cut)
				if got, want := archState(c), archState(twin); got != want {
					t.Fatalf("cut %d at %v: cores differ\n rotation %s\n    exact %s", i, fast.k.Now(), got, want)
				}
				if fast.k.Now() != slow.k.Now() || fast.k.Seq() != slow.k.Seq() || fast.k.Fired() != slow.k.Fired() {
					t.Fatalf("cut %d: kernel at %v seq %d fired %d, exact at %v seq %d fired %d", i,
						fast.k.Now(), fast.k.Seq(), fast.k.Fired(), slow.k.Now(), slow.k.Seq(), slow.k.Fired())
				}
			}
			if c.t.RotationSlots == 0 {
				t.Error("no slot ran in the rotation")
			}
		})
	}
}

// TestLogMemory pins the slot log at no more than the 2 KiB the per-slot
// log took: windows run to the horizon because runs are cheap to log,
// not because the log grew.
func TestLogMemory(t *testing.T) {
	var c Core
	if got := unsafe.Sizeof(c.log); got > 2048 {
		t.Errorf("the slot log takes %d bytes of every Core, want at most 2048", got)
	}
}

// TestPreexecOverUnreplayedSlotsPanics pins the guard against a window
// handed out twice: a core that still holds slots must not be given
// another window, which would overwrite them.
func TestPreexecOverUnreplayedSlotsPanics(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), turboLoop)
	at := c.alignUp(r.k.Now())
	c.preexec(at, at+sim.Microsecond)
	mustPanic(t, "second window", "pre-executed slots not replayed", func() { c.preexec(at, at+sim.Microsecond) })
}

// emptyRing is a slice's turbo group arranged by hand as run finds it
// when a member's compute streak opens a window: cores[0]'s next slot
// in hand at now, the other fifteen in the ring at the same time, every
// log empty, every core dense and well into its streak.
func emptyRing(t *testing.T) stagedRing {
	t.Helper()
	r := newRig(t)
	cores := r.group(t, turboLoop4)
	r.k.RunFor(2 * sim.Microsecond) // past the spawns
	c := cores[0]
	s := stagedRing{g: c.turbo, cores: cores, period: c.clk.Period()}
	s.now = c.alignUp(r.k.Now()) + c.clk.Cycles(8)
	for i, c := range cores {
		if c.InstrCount-c.commMark < preexecStreak {
			t.Fatalf("core %v is %d instructions into its streak, want at least %d", c.node, c.InstrCount-c.commMark, preexecStreak)
		}
		c.t = TurboStats{}
		if i > 0 {
			s.g.push(c, s.now)
		}
	}
	return s
}

// refillAt hands out windows from now up to room periods later, with
// GOMAXPROCS at width.
func (s *stagedRing) refillAt(width int, room int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	s.limit = s.now + sim.Time(room)*s.period + 17
	s.g.refill(s.cores[0], s.now, s.limit)
}

// stats sums the cores' fast-path counters.
func (s *stagedRing) stats() (ts TurboStats) {
	for _, c := range s.cores {
		ts.add(&c.t)
	}
	return ts
}

// logs renders every core's log and state.
func (s *stagedRing) logs() string {
	var b strings.Builder
	for _, c := range s.cores {
		fmt.Fprintf(&b, "%v: %v %s\n", c.node, c.log[:c.logTail], coreState(c))
	}
	return b.String()
}

// TestFanoutJoinsBeforeReturning pins the join. Two windows are handed
// out on two host threads: a long one, for the ring member, and one a
// tenth as long for the core in hand. Claims go from the last window
// down, and the simulation goroutine is held back (beforeClaim) until a
// helper has claimed, so the helper takes the long window and the
// simulation goroutine runs out of windows a tenth of the way through it:
// refill must not return before it is done, for the group goes on to
// replay what it logged. A fan-out whose offer found no helper parked is
// tried again.
func TestFanoutJoinsBeforeReturning(t *testing.T) {
	const short, long = 20_000, 200_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for try := 0; try < 20; try++ {
		s := emptyRing(t)
		f := &s.g.fan
		f.beforeClaim = func() {
			for give := time.Now().Add(100 * time.Millisecond); uint32(f.word.Load()) == 2 && time.Now().Before(give); {
				runtime.Gosched()
			}
		}
		cur, other := s.cores[0], s.cores[1]
		s.g.tail = s.g.head + 1
		s.g.q[s.g.head&uint(len(s.g.q)-1)].when = s.now
		s.g.refill(cur, s.now+(long-short)*s.period, s.now+long*s.period+17)
		if cur.logged() != short+1 || other.logged() != long+1 {
			t.Fatalf("refill returned with %d of %d slots logged on the core in hand and %d of %d on the other (helped windows: %d, %d): it did not join",
				cur.logged(), short+1, other.logged(), long+1, cur.t.HelpedWindows, other.t.HelpedWindows)
		}
		if cur.t.Fanouts != 1 {
			t.Fatalf("%d fan-outs, want 1", cur.t.Fanouts)
		}
		if other.t.HelpedWindows == 1 {
			return
		}
	}
	t.Error("no helper took the long window in twenty fan-outs")
}

// TestFanoutComputesTheSameWindows hands sixteen windows of fifty
// thousand slots each to the pool on four host threads: each must be the
// window the simulation goroutine alone computes — the same log, the
// same core state — whoever computed it, and the simulation goroutine
// always takes at least one.
func TestFanoutComputesTheSameWindows(t *testing.T) {
	const room = 50_000
	alone := emptyRing(t)
	alone.refillAt(1, room)
	if ts := alone.stats(); ts.Fanouts != 0 || ts.HelpedWindows != 0 {
		t.Fatalf("on one host thread: %d fan-outs, %d helped windows, want none", ts.Fanouts, ts.HelpedWindows)
	}
	want := alone.logs()

	helped := uint64(0)
	for try := 0; try < 10 && helped == 0; try++ {
		s := emptyRing(t)
		s.refillAt(4, room)
		ts := s.stats()
		if ts.Fanouts != 1 || s.cores[0].t.Fanouts != 1 {
			t.Fatalf("%d fan-outs counted, %d on the core in hand; want 1 and 1", ts.Fanouts, s.cores[0].t.Fanouts)
		}
		if ts.HelpedWindows > uint64(len(s.cores)-1) {
			t.Fatalf("%d windows helped of %d: the simulation goroutine always takes at least one", ts.HelpedWindows, len(s.cores))
		}
		helped = ts.HelpedWindows
		for _, c := range s.cores {
			c.t.Fanouts, c.t.HelpedWindows = 0, 0
		}
		if got := s.logs(); got != want {
			t.Fatalf("windows computed on four host threads differ from the simulation goroutine's own\n four %s\n one %s", got, want)
		}
	}
	if helped == 0 {
		t.Error("no helper took a window in ten fan-outs of 800 000 slots each")
	}
}

// TestFanoutThreshold pins the work estimate: windows are offered to the
// pool when the slots they can run — one per period from each core's
// slot up to limit, limit's own slot included — reach fanoutMinSlots,
// and not one slot under it.
func TestFanoutThreshold(t *testing.T) {
	const m = 16
	if fanoutMinSlots%m != 0 {
		t.Fatalf("fanoutMinSlots = %d does not divide among %d cores", fanoutMinSlots, m)
	}
	per := int64(fanoutMinSlots / m) // slots each core must be able to run
	for _, tc := range []struct {
		name string
		room int64 // periods from now to limit: room+1 slots a core
		lag  int64 // the last core's slot is this many periods later
		want uint64
	}{
		{"exactly the threshold", per - 1, 0, 1},
		{"one slot under: one core a period later", per - 1, 1, 0},
		{"one period under for every core", per - 2, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := emptyRing(t)
			s.g.q[(s.g.tail-1)&uint(len(s.g.q)-1)].when += sim.Time(tc.lag) * s.period
			s.refillAt(4, tc.room)
			if got := s.stats().Fanouts; got != tc.want {
				t.Errorf("%d fan-outs for %d slots of work, want %d (threshold %d)", got, m*(tc.room+1)-tc.lag, tc.want, fanoutMinSlots)
			}
			for i, c := range s.cores {
				want := tc.room + 1
				if i == m-1 {
					want -= tc.lag
				}
				if int64(c.logged()) != want {
					t.Errorf("core %v logged %d slots, want %d", c.node, c.logged(), want)
				}
			}
		})
	}
	t.Run("a single window is never offered", func(t *testing.T) {
		s := emptyRing(t)
		s.g.tail = s.g.head
		s.refillAt(4, 4*fanoutMinSlots)
		if ts := s.stats(); ts.Fanouts != 0 || s.cores[0].logged() != 4*fanoutMinSlots+1 {
			t.Errorf("%d fan-outs, %d slots logged on the lone core; want 0 and %d", ts.Fanouts, s.cores[0].logged(), 4*fanoutMinSlots+1)
		}
	})
}

// TestRefillEligibility pins who is given a window: the core in hand if
// its log is empty, and ring members whose log is empty, which nothing
// outside can wake, on a compute streak, whose slot lies within limit.
// A member one instruction short of preexecStreak is on the streak: the
// first of the cores in step asks before it issues its streak's last
// instruction, and the ones behind it in the ring, at the same time and
// one short too, must share its fan-out, not each open a window alone.
func TestRefillEligibility(t *testing.T) {
	s := emptyRing(t)
	holds, comm, parked, late, behind := s.cores[3], s.cores[5], s.cores[7], s.cores[9], s.cores[13]
	holds.preexec(s.now, s.now+10*s.period)
	comm.commMark = comm.InstrCount - preexecJoin + 1
	behind.commMark = behind.InstrCount - preexecStreak + 1
	parked.threads[2].State = TBlockedChan
	mask := uint(len(s.g.q) - 1)
	for i := s.g.head; i != s.g.tail; i++ {
		if s.g.q[i&mask].c == late {
			// Keep the ring sorted: the late member goes to the tail.
			copy(s.g.q[i&mask:], s.g.q[(i+1)&mask:s.g.tail&mask])
			s.g.q[(s.g.tail-1)&mask] = turboSlot{when: s.now + 200*s.period, c: late}
			break
		}
	}
	before := holds.logged()
	s.refillAt(4, 100)
	for i, c := range s.cores {
		want := 101
		switch c {
		case holds:
			want = before
		case comm, parked, late:
			want = 0
		}
		if got := c.logged(); got != want {
			t.Errorf("core %d (%v) holds %d slots after the refill, want %d", i, c.node, got, want)
		}
	}

	// The core in hand is given one however short its streak — it asked —
	// unless it still holds slots.
	s = emptyRing(t)
	s.cores[0].commMark = s.cores[0].InstrCount
	s.refillAt(4, 100)
	if got := s.cores[0].logged(); got != 101 {
		t.Errorf("the core in hand holds %d slots after the refill, want 101", got)
	}
	s = emptyRing(t)
	s.cores[0].preexec(s.now, s.now+10*s.period)
	s.refillAt(4, 100)
	if got := s.cores[0].logged(); got != 11 {
		t.Errorf("the core in hand, which held 11 slots, holds %d after the refill", got)
	}
}

// TestLateHelperClaimsNothing plays a helper that took an offer and was
// not scheduled until its fan-out was over and the next one open: the
// record it was handed has moved on to another generation, and it must
// neither claim a window of the new fan-out nor read the record.
func TestLateHelperClaimsNothing(t *testing.T) {
	s := emptyRing(t)
	s.refillAt(1, 100)
	f := &s.g.fan
	stale := f.gen

	// Open the next fan-out by hand and leave it open.
	next := emptyRing(t)
	f = &next.g.fan
	f.gen = stale // the same generation numbers as the record the helper saw
	f.wins = f.wins[:0]
	for _, c := range next.cores {
		f.add(c, next.now, next.now+100*next.period)
	}
	f.limit = next.now + 100*next.period
	f.gen++
	n := len(f.wins)
	f.wg.Add(n)
	f.word.Store(uint64(f.gen)<<32 | uint64(n))

	f.work(stale, true)
	if left := uint32(f.word.Load()); int(left) != n {
		t.Errorf("a helper of generation %d claimed %d windows of generation %d", stale, n-int(left), f.gen)
	}
	for _, c := range next.cores {
		if c.logTail != 0 || c.t.HelpedWindows != 0 {
			t.Errorf("core %v was pre-executed by a helper of an earlier generation", c.node)
		}
	}
	// A helper of the right generation takes them all.
	f.work(f.gen, true)
	f.wg.Wait()
	for _, c := range next.cores {
		if c.logged() != 101 || c.t.HelpedWindows != 1 {
			t.Errorf("core %v: %d slots, %d helped windows after the fan-out's own helper ran; want 101 and 1", c.node, c.logged(), c.t.HelpedWindows)
		}
	}
}

// TestWindowPanicSurfacesAfterJoin pins what happens to a panic under a
// window: it is raised on the simulation goroutine, by refill, once
// every other window has been computed.
func TestWindowPanicSurfacesAfterJoin(t *testing.T) {
	s := emptyRing(t)
	bad := s.cores[6]
	bad.rr = append(bad.rr, MaxThreads+3) // pickReady indexes threads by it
	mustPanicAny(t, "refill", func() { s.refillAt(4, 20_000) })
	for _, c := range s.cores {
		if c != bad && c.logged() != 20_001 {
			t.Errorf("core %v holds %d slots after the panic, want its whole window: refill did not join first", c.node, c.logged())
		}
	}
	if s.g.fan.fault.Load() != nil {
		t.Error("the fault was left on the record")
	}
}

// mustPanicAny runs f and requires a panic of any kind.
func mustPanicAny(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// mallocs runs f n times on width host threads and reports the heap
// allocations per run across all goroutines, as testing.AllocsPerRun
// reports them: whole allocations per run, which anything allocated for
// every fan-out reaches and a stray one — the runtime now and then
// allocates a record for a goroutine to park on, or a thread to wake a
// helper on — does not. The least of three measurements. AllocsPerRun
// itself cannot stand in: it measures with GOMAXPROCS at 1, where no
// window is ever offered to a helper.
func mallocs(width, n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	f() // warm up
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/uint64(n))
	}
	return least
}

// TestFanoutZeroAllocs holds the zero-allocation pin with helpers live:
// sixteen dense cores in bursts long enough to be shared, on four host
// threads. The fan-out record is part of the group, offers are values on
// an unbuffered channel, and the pool's goroutines were started by the
// prewarm.
func TestFanoutZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := newRig(t)
	cores := r.group(t, turboLoop4)
	// 16 cores × 4000 cycles: twice the threshold.
	const burst = 8 * sim.Microsecond
	for i := 0; i < 300; i++ {
		r.k.RunFor(burst)
	}
	for _, c := range cores {
		c.t = TurboStats{}
	}
	allocs := mallocs(4, 20, func() { r.k.RunFor(burst) })
	var ts TurboStats
	for _, c := range cores {
		ts.add(&c.t)
	}
	if ts.Fanouts == 0 {
		t.Fatal("no burst was offered to the pool; the pin tested nothing")
	}
	if allocs != 0 {
		t.Errorf("%d allocations per RunFor(%v) burst with %d fan-outs and %d helped windows in 61 bursts, want 0",
			allocs, burst, ts.Fanouts, ts.HelpedWindows)
	}
	if ts.PreexecSlots != ts.ReplayedSlots {
		t.Errorf("%d slots pre-executed, %d replayed", ts.PreexecSlots, ts.ReplayedSlots)
	}
}

// TestCommunicationPickEndsTheStreak pins what a window that stops at a
// communication pick does to its core's streak. Sixteen cores in step
// run a single-thread prelude long enough to be pre-executed, then spawn
// threads: every window of the prelude ends at the first spawn
// instruction, in the same turn. A core turned away at that pick must
// not count as on a streak, or each member's refill in that turn would
// collect every member turned away before it — sixteen refills of one to
// sixteen empty windows, most of them offered to the pool.
func TestCommunicationPickEndsTheStreak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := newRig(t)
	cores := r.group(t, strings.Repeat("\tadd r5, r5, r5\n", 40)+turboLoop4)
	r.k.RunFor(20 * sim.Microsecond)
	var ts TurboStats
	for _, c := range cores {
		ts.add(&c.t)
	}
	// One fan-out in the prelude, one after the spawns.
	if ts.Fanouts == 0 || ts.Fanouts > 2 {
		t.Errorf("%d fan-outs, want one for the prelude and one for the loop", ts.Fanouts)
	}
}

// TestFastPathCounters pins the fast path by what it counts, not by a
// stopwatch: sixteen cores in step for 200 µs, at every thread count with
// a slot pattern of its own — one and two threads leave slots empty and
// skip ahead, three probe a slot that stays on the grid, four and eight
// fill every slot. At each, nineteen replayed slots in twenty are retired
// by round steps, the windows are offered to the helper pool, and a core's
// window to that horizon is no more than a run and its tail. A change that
// falls off rounds, folding or the fan-out fails here.
func TestFastPathCounters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const span = 200 * sim.Microsecond
	for _, threads := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprint(threads, " threads"), func(t *testing.T) {
			r := newRig(t)
			cores := r.group(t, turboLoopOn(threads))
			r.k.RunFor(span)
			var ts TurboStats
			for _, c := range cores {
				ts.add(&c.t)
			}
			if ts.PreexecSlots != ts.ReplayedSlots || ts.ReplayedSlots == 0 {
				t.Fatalf("%d slots pre-executed, %d replayed", ts.PreexecSlots, ts.ReplayedSlots)
			}
			if ts.RoundSlots*20 < ts.ReplayedSlots*19 {
				t.Errorf("%d of %d replayed slots retired by round steps, want at least 95%%", ts.RoundSlots, ts.ReplayedSlots)
			}
			if ts.Fanouts == 0 {
				t.Error("no window was offered to the helper pool on two host threads")
			}
			for _, c := range cores {
				c.preexec(c.issueTimer.When(), r.k.Now()+span)
				if c.logTail > 2 || c.logged() < int(span/c.clk.Period())/2 {
					t.Fatalf("core %v: a window of %d slots to a horizon 200 µs out took %d runs, want at most 2: %+v",
						c.node, c.logged(), c.logTail, c.log[:min(c.logTail, 4)])
				}
			}
			t.Logf("%d slots replayed, %d in rounds, %d fan-outs, %d helped windows", ts.ReplayedSlots, ts.RoundSlots, ts.Fanouts, ts.HelpedWindows)
		})
	}
}
