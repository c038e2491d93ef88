package xs1

import (
	"fmt"
	"testing"

	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/trace"
)

// stalledRx is a receiver parked in IN with one token of the four it
// wants: the core at h00 runs rxOne, the test feeds its channel end 0
// from a channel end of v00's switch, a package-internal link away. The
// kernel holds nothing: whatever the test asks, it asks of a still
// machine.
type stalledRx struct {
	r   *rig
	c   *Core
	th  *Thread
	src *noc.ChanEnd
}

// rxOne receives one word and then one token.
const rxOne = `
	getr r0, 2
	in   r0, r4
	int  r0, r5
	dbg  r4
	tend
`

func stageStalledRx(t *testing.T) stalledRx {
	t.Helper()
	r := newRig(t)
	c := r.core(t, h00(), rxOne)
	src := r.net.Switch(v00()).ChanEnd(5)
	src.SetDest(noc.MakeChanEndID(uint16(h00()), 0))
	src.TryOut(noc.DataToken(0xAA))
	r.k.RunFor(sim.Microsecond)
	th := &c.threads[0]
	if th.State != TBlockedChan || th.blockedOn.InAvailable() != 1 || r.k.Pending() != 0 {
		t.Fatalf("stage: thread %v holding %d tokens, %d events pending; want blocked on one token, none pending",
			th.State, th.blockedOn.InAvailable(), r.k.Pending())
	}
	return stalledRx{r: r, c: c, th: th, src: src}
}

// inside runs f from a foreign event 10 ns from now, under a RunUntil
// whose deadline is the one given — as a function of the idle probe a
// wake at that event would end in — or, given none, a microsecond on.
func (s stalledRx) inside(deadline func(probe sim.Time) sim.Time, f func()) {
	at := s.r.k.Now() + 10*sim.Nanosecond
	until := at + sim.Microsecond
	if deadline != nil {
		until = deadline(s.c.alignUp(at) + s.c.clk.Period())
	}
	s.r.k.NewTimer(f).ArmAt(at)
	s.r.k.RunUntil(until)
}

// TestCountableRefusals takes the predicate through every reason it has to
// refuse, and the states beside them it must not mind. A refusal — from
// the predicate or from the wake that asks it — leaves the kernel's
// counters and the core exactly as they were; the one case that counts
// moves exactly what the two slots would have.
func TestCountableRefusals(t *testing.T) {
	period := sim.NewClock(DefaultConfig().FreqMHz).Period()
	cases := []struct {
		name string
		want refusal
		// deadline places the RunUntil's deadline against the probe.
		deadline func(probe sim.Time) sim.Time
		// bare asks outside any drain, where the deadline is the clock.
		bare bool
		// stage prepares the refusal and returns how to undo it.
		stage func(s stalledRx) (undo func())
	}{
		{name: "nothing in the way", want: counted},
		{name: "outside any drain", want: refusedUnbounded, bare: true},
		{name: "probe beyond the deadline", want: refusedUnbounded, deadline: func(probe sim.Time) sim.Time { return probe - 1 }},
		{name: "probe on the deadline", want: counted, deadline: func(probe sim.Time) sim.Time { return probe }},
		{name: "recorder attached", want: refusedUnbounded, stage: func(s stalledRx) func() {
			s.r.k.SetRecorder(trace.NewRecorder(1 << 10))
			return func() { s.r.k.SetRecorder(nil) }
		}},
		{name: "slots logged", want: refusedBusy, stage: func(s stalledRx) func() {
			s.c.logTail = 1
			return func() { s.c.logTail = 0 }
		}},
		{name: "another thread ready", want: refusedBusy, stage: otherThread(TReady)},
		{name: "another thread on a channel end", want: refusedBusy, stage: otherThread(TBlockedChan)},
		{name: "another thread on the clock", want: refusedBusy, stage: otherThread(TBlockedTime)},
		{name: "another thread joining", want: counted, stage: otherThread(TBlockedJoin)},
		{name: "another thread paused", want: counted, stage: otherThread(TPaused)},
		{name: "another thread done", want: counted, stage: otherThread(TDone)},
		{name: "instruction's page written since", want: refusedUnread, stage: func(s stalledRx) func() {
			s.c.touch(s.th.PC * 4)
			return func() { s.c.fetchMiss(s.th); s.c.t = TurboStats{} }
		}},
		{name: "not an instruction that waits", want: refusedUnread, stage: func(s stalledRx) func() {
			pc := s.th.PC
			s.th.PC = 0 // getr: executed, so cached
			return func() { s.th.PC = pc }
		}},
		{name: "instruction satisfied", want: refusedSatisfied, stage: func(s stalledRx) func() {
			pc := s.th.PC
			s.th.PC += 1 // int wants the one token that is there
			s.c.fetchMiss(s.th)
			s.c.t = TurboStats{}
			return func() { s.th.PC = pc }
		}},
		{name: "a token lands by the probe", want: refusedReachable, stage: func(s stalledRx) func() {
			// Injected 6 ns on, 32 ns on the wire, a hop of 4: it lands 2 ns
			// after the asking event, inside the two slots.
			s.src.TryOut(noc.DataToken(0xBB))
			s.r.k.RunFor(30 * sim.Nanosecond)
			return func() {}
		}},
	}
	s := stageStalledRx(t)
	for _, tc := range cases {
		undo := func() {}
		if tc.stage != nil {
			undo = tc.stage(s)
		}
		var got refusal
		var woke bool
		var before, after string
		question := func() {
			state := func() string {
				return fmt.Sprintf("seq=%d fired=%d pending=%d %s", s.r.k.Seq(), s.r.k.Fired(), s.r.k.Pending(), coreState(s.c))
			}
			before = state()
			got = s.c.countable(s.th, s.c.alignUp(s.r.k.Now())+period)
			if got != counted {
				woke = s.c.countDoomedWake(s.th)
			}
			after = state()
		}
		if tc.bare {
			question()
		} else {
			s.inside(tc.deadline, question)
		}
		undo()
		if got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
		if woke {
			t.Errorf("%s: the predicate refused and the wake counted all the same", tc.name)
		}
		if before != after {
			t.Errorf("%s: the question moved something\n before %s\n after  %s", tc.name, before, after)
		}
		s.c.t = TurboStats{}
		if s.th.State != TBlockedChan {
			t.Fatalf("%s: left the thread %v", tc.name, s.th.State)
		}
	}

	// And the wake that may count does: two firings, one idle slot,
	// nextReady on the grid, nothing armed, the thread blocked where it
	// was — and as many sequence numbers as the kick and the retry would
	// have spent, which depends on what they would have found armed.
	for _, tc := range []struct {
		name string
		// armed is where the issue timer stands, relative to the retry's
		// slot; nil leaves it unarmed.
		armed   *sim.Time
		counts  bool
		seq     uint64
		pending int
	}{
		{name: "unarmed: the kick arms the retry, the retry the probe", counts: true, seq: 2},
		{name: "armed for later: the kick moves it", armed: new(sim.Time), counts: true, seq: 2, pending: -1},
		{name: "armed for the retry's slot: the kick keeps it", armed: new(sim.Time), counts: true, seq: 1, pending: -1},
		{name: "armed for earlier: it fires first", armed: new(sim.Time)},
	} {
		s = stageStalledRx(t)
		s.inside(nil, func() {
			k := s.r.k
			// The thread may not issue before the slot after next, so
			// there is a slot earlier than the retry's to be armed for.
			retry := s.c.alignUp(k.Now()) + 2*period
			s.th.nextReady = retry
			if tc.armed != nil {
				at := retry + period
				if tc.seq == 1 {
					at = retry
				} else if !tc.counts {
					at = retry - period
				}
				s.c.issueTimer.ArmAt(at)
			}
			s.c.t = TurboStats{}
			seq, fired, idle, pending, core := k.Seq(), k.Fired(), s.c.IdleSlots, k.Pending(), coreState(s.c)
			if got := s.c.countDoomedWake(s.th); got != tc.counts {
				t.Fatalf("%s: counted=%v, want %v", tc.name, got, tc.counts)
			}
			if !tc.counts {
				if k.Seq() != seq || k.Fired() != fired || k.Pending() != pending || coreState(s.c) != core {
					t.Errorf("%s: the refused wake moved something", tc.name)
				}
				s.c.issueTimer.Disarm()
				return
			}
			if k.Seq() != seq+tc.seq || k.Fired() != fired+2 || s.c.IdleSlots != idle+1 || k.Pending() != pending+tc.pending {
				t.Errorf("%s: moved seq %+d fired %+d idle %+d pending %+d, want %+d +2 +1 %+d", tc.name,
					k.Seq()-seq, k.Fired()-fired, s.c.IdleSlots-idle, k.Pending()-pending, tc.seq, tc.pending)
			}
			if s.th.nextReady != retry || s.th.State != TBlockedChan || s.th.blockedOn == nil || s.c.issueTimer.Armed() {
				t.Errorf("%s: thread %v ready at %v, issue timer armed=%v; want blocked, ready at %v, unarmed",
					tc.name, s.th.State, s.th.nextReady, s.c.issueTimer.Armed(), retry)
			}
			if s.c.t.CountedSlots != 2 || s.c.t.CountedWakes != 1 || s.c.t.DoomedWakes != 1 || s.c.t.DecodeHits != 0 || s.c.t.Batches != 0 {
				t.Errorf("%s: counters %+v: want two counted slots of one doomed wake, no fetch and no batch", tc.name, s.c.t)
			}
		})
	}
	// The rest of the word still arrives and completes the IN.
	for _, b := range []byte{1, 2, 3, 4} {
		s.src.TryOut(noc.DataToken(b))
	}
	s.r.run(t, s.r.k.Now()+10*sim.Microsecond, s.c)
	if got := s.c.DebugTrace; len(got) != 1 || got[0] != 0xAA010203 {
		t.Fatalf("received %x, want [aa010203]", got)
	}
}

// otherThread stages hardware thread 3 in the given state.
func otherThread(state ThreadState) func(s stalledRx) func() {
	return func(s stalledRx) func() {
		s.c.threads[3].State = state
		return func() { s.c.threads[3].State = TFree }
	}
}

// streamTx sends so many words (0, 1, 2, ...) to dest and closes the
// route; streamRx sums as many and checks the END. They are workload's
// StreamTx and StreamRx, which this package cannot import.
func streamTx(dest noc.ChanEndID, words int) string {
	return fmt.Sprintf(`
	getr r0, 2
	ldc  r1, %d
	setd r0, r1
	ldc  r2, %d
	ldc  r3, 0
txloop:
	out  r0, r3
	addi r3, r3, 1
	subi r2, r2, 1
	brt  r2, txloop
	outct r0, ct_end
	tend
`, uint32(dest), words)
}

func streamRx(words int) string {
	return fmt.Sprintf(`
	ldc  r2, %d
	ldc  r3, 0
	getr r0, 2
rxloop:
	in   r0, r4
	add  r3, r3, r4
	subi r2, r2, 1
	brt  r2, rxloop
	chkct r0, ct_end
	dbg  r3
	tend
`, words)
}

// streamed is what one stream run leaves behind.
type streamed struct {
	now              sim.Time
	seq, fired       uint64
	txIdle, rxIdle   uint64
	txCount, rxCount TurboStats
}

// runStream runs one package-internal stream of so many words, v00 to
// h00, to completion and on to a fixed time, in segments of a microsecond
// as Machine.Run would; prelude goes in front of the receiver's program.
func runStream(t *testing.T, exact bool, words int, prelude string) streamed {
	t.Helper()
	r := newRig(t)
	r.exact = exact
	rx := r.core(t, h00(), prelude+streamRx(words))
	tx := r.core(t, v00(), streamTx(noc.MakeChanEndID(uint16(h00()), 0), words))
	GroupTurbo([]*Core{rx, tx})
	for !(rx.threads[0].State == TDone && tx.Done()) {
		if r.k.Now() > 200*sim.Microsecond {
			t.Fatalf("stream not done by %v: tx %v, rx %v", r.k.Now(), tx.threads[0].State, rx.threads[0].State)
		}
		r.k.RunFor(sim.Microsecond)
	}
	if err := rx.Trapped(); err != nil {
		t.Fatal(err)
	}
	if want := uint32(words * (words - 1) / 2); len(rx.DebugTrace) != 1 || rx.DebugTrace[0] != want {
		t.Fatalf("receiver summed %v, want [%d]", rx.DebugTrace, want)
	}
	return streamed{now: r.k.Now(), seq: r.k.Seq(), fired: r.k.Fired(),
		txIdle: tx.IdleSlots, rxIdle: rx.IdleSlots, txCount: tx.t, rxCount: rx.t}
}

// TestCountedStreamMatchesExact pins the accounting in exact integers:
// one hundred words cross a package on the reference pipeline, where every
// issue slot is a kernel event, and on the fast path, where the slots a
// blocked thread cannot use are counted. The kernel ends with the same
// Seq and Fired at the same time, both cores have seen the same idle
// slots — and how many slots were counted, of how many stalls, is a
// number that moves only when the mechanism does.
func TestCountedStreamMatchesExact(t *testing.T) {
	slow := runStream(t, true, 100, "")
	fast := runStream(t, false, 100, "")
	if slow.now != fast.now || slow.seq != fast.seq || slow.fired != fast.fired {
		t.Errorf("kernel accounting differs\n exact now=%v seq=%d fired=%d\n turbo now=%v seq=%d fired=%d",
			slow.now, slow.seq, slow.fired, fast.now, fast.seq, fast.fired)
	}
	if slow.txIdle != fast.txIdle || slow.rxIdle != fast.rxIdle {
		t.Errorf("idle slots differ: exact tx %d rx %d, turbo tx %d rx %d", slow.txIdle, slow.rxIdle, fast.txIdle, fast.rxIdle)
	}
	if n := slow.txCount.CountedSlots + slow.rxCount.CountedSlots + slow.txCount.DoomedWakes + slow.rxCount.BlockProbes; n != 0 {
		t.Errorf("the reference pipeline counted: tx %+v rx %+v", slow.txCount, slow.rxCount)
	}
	sum := fast.txCount
	sum.add(&fast.rxCount)
	got := fmt.Sprintf("counted %d slots: %d of %d doomed wakes, %d of %d probes after a block",
		sum.CountedSlots, sum.CountedWakes, sum.DoomedWakes, sum.CountedProbes, sum.BlockProbes)
	const want = "counted 1183 slots: 591 of 591 doomed wakes, 1 of 2 probes after a block"
	if got != want {
		t.Errorf("%s\nwant %s", got, want)
	}
	if sum.CountedSlots != 2*sum.CountedWakes+sum.CountedProbes {
		t.Errorf("%d slots counted for %d wakes and %d probes", sum.CountedSlots, sum.CountedWakes, sum.CountedProbes)
	}
}

// TestCountedUnderRunMatchesExact: Run is a drain with no bound, so a
// stall inside it may be counted — here a sender blocked for good on a
// channel end nobody reads — and Run still returns where the reference
// pipeline's does: the fabric's last event lies beyond every counted
// slot, so the clock, the kernel's counters and the core agree.
func TestCountedUnderRunMatchesExact(t *testing.T) {
	const tx = `
	getr r0, 2
	ldc  r1, 0
	setd r0, r1
loop:
	out  r0, r1
	bru  loop
`
	run := func(exact bool) (string, uint64) {
		r := newRig(t)
		r.exact = exact
		c := r.core(t, h00(), tx)
		r.k.Run()
		return fmt.Sprintf("now=%d seq=%d fired=%d pending=%d deadline=%d %s",
			r.k.Now(), r.k.Seq(), r.k.Fired(), r.k.Pending(), r.k.Deadline(), archState(c)), c.t.CountedSlots
	}
	want, _ := run(true)
	got, counted := run(false)
	if counted == 0 {
		t.Error("no slot was counted under Run; the case is not exercised")
	}
	if got != want {
		t.Errorf("turbo under Run diverges from the exact pipeline\nexact %s\nturbo %s", want, got)
	}
}

// TestBusyCoreNeverCounts: a receiver that also runs a compute thread is
// never inert, so none of its stalls is counted — its retries and probes
// are slots another thread may issue in — while the sender's, across the
// link, are; and the run still ends where the reference pipeline's does.
func TestBusyCoreNeverCounts(t *testing.T) {
	const worker = `
	getst r1, spin
	ldc   r2, 0xE800
	tsetr r1, 12, r2
	tstart r1
	bru   main
spin:
	ldc r0, 1000000
spinloop:
	add  r1, r1, r0
	subi r0, r0, 1
	brt  r0, spinloop
	tend
main:
`
	slow := runStream(t, true, 100, worker)
	fast := runStream(t, false, 100, worker)
	if slow.now != fast.now || slow.seq != fast.seq || slow.fired != fast.fired || slow.rxIdle != fast.rxIdle || slow.txIdle != fast.txIdle {
		t.Errorf("runs differ\n exact %+v\n turbo %+v", slow, fast)
	}
	if fast.rxCount.CountedSlots != 0 {
		t.Errorf("the computing receiver counted %d slots", fast.rxCount.CountedSlots)
	}
	if fast.rxCount.DoomedWakes == 0 {
		t.Error("the computing receiver saw no doomed wake; the case is not exercised")
	}
	if fast.txCount.CountedSlots == 0 {
		t.Error("the sender counted nothing")
	}
}
