package xs1

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/trace"
)

// Turbo is the core's execution fast path, three mechanisms deep:
//
//  1. A predecoded instruction cache: each SRAM word executed as an
//     instruction is decoded once into a dense per-page side table and
//     revalidated with a single generation compare against the page
//     stamps snapshot.go maintains on every store. The cache is
//     derived state — never snapshotted, never restored — and a stale
//     stamp simply re-decodes, so self-modifying code, program loads
//     and Restore all stay exact.
//
//  2. Batched run-to-horizon issue: instead of one ladder-queue
//     arm/fire round trip per instruction, a turboGroup — every core
//     sharing one kernel, typically all cores of a machine — executes
//     issue slots in a tight loop in global (time, sequence) order.
//     Sibling members' pending issue firings are absorbed into the
//     batch (Kernel.AbsorbNext), later slots advance the clock with
//     Kernel.StepTo, and each slot's re-arm is deferred in a small
//     time-sorted queue that the batch hands back to the kernel when
//     it stops, in the exact order the slow path would have armed. A
//     batch stops at the first event it cannot own: a foreign kernel
//     event (the horizon), the active RunUntil deadline, any
//     instruction that could interact beyond the issuing thread (every
//     communication/resource/thread/time opcode is energy.ClassComm),
//     a trap, or the batch cap. Nothing is armed or observed mid-batch
//     except what the identical slow-path instruction would have
//     armed, so architectural state at every kernel-visible boundary
//     is bit-identical to the unbatched loop — including the kernel's
//     own clock, firing and sequence counters.
//
//  3. Pre-execution of compute slots: cores share no memory, so between
//     two communication instructions a core's registers, SRAM, thread
//     rotation and counters are nobody else's business. What a slot
//     does is therefore split from when the kernel accounts for it: a
//     core on a streak of compute instructions runs its own next slots
//     alone on a local clock (Core.preexec — no kernel call, no group
//     queue) and logs one (at, next) pair per slot; the group loop
//     stays the single owner of global order and kernel accounting, and
//     when it reaches a slot of a core with a non-empty log the slot is
//     a log pop instead of an instruction. Push, pop, AbsorbNext,
//     StepTo, the exit re-arm, the batch cap and every batch boundary
//     are untouched, so kernel Now/Seq/Fired and arm order are the
//     unbatched loop's by construction; there is no rollback and
//     nothing to undo — work is only done earlier. It is sound because
//     it is bounded: only inside RunUntil, only slots strictly before
//     the kernel's earliest pending registration and no later than the
//     deadline, only while the core has no thread an outside event
//     could wake, never with a recorder attached, and never across a
//     communication instruction — the run stops before the pick. Every
//     entry into a core from outside its own issue step panics on a
//     non-empty log (Core.settled).
//
//     Replaying has a closed form where it matters most. Cores of a
//     loaded slice keep one clock, so their slots fall on one grid and
//     the group queue does nothing but rotate: when the core in hand
//     and every queued member hold logged slots that each re-arm one
//     period later, on the same period, and the queue's last slot is no
//     later than a period from now, every push lands at the tail and
//     every pop takes the head, and one turn later it is the same queue
//     one period on. turboGroup.rounds retires r such turns at once —
//     each log head moved on by r, each queued time by r periods, the
//     slot count by r per member — and replay steps the kernel for all
//     of it with one counted step (Kernel.StepN) on its way out: by
//     induction what the slot-by-slot loop leaves behind, bounded by
//     the horizon, the deadline and the batch cap exactly as the slots
//     themselves would be. Anything else — an empty log, another
//     period, an idle probe that skips ahead, a staggered tail — is
//     refused, not guessed at, and goes slot by slot.
//
// Round-robin order, pipeline spacing, idle-slot accounting and energy
// accrual run through the same code as the slow path (pickReady,
// earliestReadyTime, run, chargeInstr), so "turbo ≡ step-by-step" is a
// structural property, guarded by the differential tests.

// turboOff inverts the enable so the zero value means on, matching the
// -turbo flag default (the warmOff idiom in internal/core).
var turboOff atomic.Bool

// SetTurbo toggles the fast path process-wide. Output is identical
// either way; off executes one instruction per kernel event with no
// predecode cache, exactly the pre-turbo loop.
func SetTurbo(on bool) { turboOff.Store(!on) }

// TurboEnabled reports whether the fast path is in effect.
func TurboEnabled() bool { return !turboOff.Load() }

// BatchExit names why a turbo batch handed control back to the kernel.
type BatchExit int

const (
	// ExitForeign: the kernel's next event belongs to no group member.
	ExitForeign BatchExit = iota
	// ExitComm: a communication instruction, which may arm timers or
	// wake threads, ran as the batch's last slot.
	ExitComm
	// ExitTrap: a thread trapped.
	ExitTrap
	// ExitDeadline: the next slot lies beyond the RunUntil deadline.
	ExitDeadline
	// ExitCap: the batch reached turboBatchCap slots.
	ExitCap
	// ExitAsleep: no member has a slot left to run.
	ExitAsleep
	// NumBatchExits is the number of exit reasons.
	NumBatchExits
)

// String names the reason as /metrics labels it.
func (e BatchExit) String() string {
	return [...]string{"foreign_event", "comm_instr", "trap", "deadline", "cap", "asleep"}[e]
}

// TurboStats are cumulative process-wide fast-path counters.
type TurboStats struct {
	// Batches counts turboGroup.run invocations (one per issue-timer
	// firing while turbo is on); BatchedInstrs counts instructions they
	// executed, pre-executed ones included. Their ratio is the realised
	// batch length.
	Batches       uint64
	BatchedInstrs uint64
	// Exits splits Batches by why each one ended.
	Exits [NumBatchExits]uint64
	// PreexecSlots counts issue slots (instructions and idle probes)
	// cores ran ahead of the kernel clock; ReplayedSlots counts those
	// the group loop has since accounted for. They are equal whenever
	// no RunUntil is executing.
	PreexecSlots  uint64
	ReplayedSlots uint64
	// RoundSlots counts the replayed slots that were retired by whole
	// turns of the group ring (turboGroup.rounds) rather than one by one.
	RoundSlots uint64
	// DecodeHits/DecodeMisses/DecodeStale count predecode-cache
	// lookups: hits served an entry, misses decoded a virgin slot,
	// stale entries were invalidated by a newer page generation and
	// re-decoded.
	DecodeHits   uint64
	DecodeMisses uint64
	DecodeStale  uint64
}

// add accumulates o into s.
func (s *TurboStats) add(o *TurboStats) {
	s.Batches += o.Batches
	s.BatchedInstrs += o.BatchedInstrs
	for i, n := range o.Exits {
		s.Exits[i] += n
	}
	s.PreexecSlots += o.PreexecSlots
	s.ReplayedSlots += o.ReplayedSlots
	s.RoundSlots += o.RoundSlots
	s.DecodeHits += o.DecodeHits
	s.DecodeMisses += o.DecodeMisses
	s.DecodeStale += o.DecodeStale
}

// turboStats aggregates across all cores; cores accumulate in their own
// plain TurboStats on the hot path and fold it in here via
// FlushTurboStats at machine-run boundaries.
var turboStats struct {
	sync.Mutex
	total TurboStats
}

// ReadTurboStats snapshots the process-wide fast-path counters.
func ReadTurboStats() TurboStats {
	turboStats.Lock()
	defer turboStats.Unlock()
	return turboStats.total
}

// FlushTurboStats folds the core's accumulated fast-path counters into
// the process-wide totals. Machine run loops call it once per poll
// step, keeping shared state off the per-instruction path.
func (c *Core) FlushTurboStats() {
	if c.t == (TurboStats{}) {
		return
	}
	turboStats.Lock()
	turboStats.total.add(&c.t)
	turboStats.Unlock()
	c.t = TurboStats{}
}

const (
	// pageWordShift/pageWords mirror snapshot.go's 4 KiB pages in
	// 32-bit instruction words: one predecode table page per SRAM page,
	// validated by the same generation stamp.
	pageWordShift = pageShift - 2
	pageWords     = 1 << pageWordShift

	// turboBatchCap bounds one batch (instructions plus idle probes) so
	// a compute-bound core cannot stall the surrounding event loop's
	// liveness indefinitely between kernel-visible boundaries.
	turboBatchCap = 4096

	// preexecStreak is how many instructions a core must have issued
	// since it last reached a communication instruction before it
	// tries to pre-execute: communication-bound code, whose compute
	// runs are a few instructions long, never pays for a window it
	// would abandon at once. A core asks at every preexecStreak-th
	// instruction it issues (a power of two), so the question itself
	// costs the exact path one test of a counter it has just updated.
	preexecStreak = 32
	// preexecWindow is the capacity of a core's slot log: how far, in
	// issue slots, its private state may lead the kernel clock.
	preexecWindow = 128

	// slotTrapped is the logged next time of a pre-executed slot whose
	// thread trapped: the replay ends the batch there, as the trap
	// itself would have.
	slotTrapped sim.Time = -2

	// timeMax stands for no bound on simulated time.
	timeMax sim.Time = math.MaxInt64
)

// preSlot is one pre-executed issue slot: the time it occupies and the
// time of the core's next slot (-1 when the core then sleeps,
// slotTrapped when the slot trapped).
type preSlot struct {
	at, next sim.Time
}

// ientry is one predecoded instruction. gen pins the page generation
// the entry was decoded under; class and words cache the per-issue
// derivations (energy class, encoded size) the slow path recomputes.
type ientry struct {
	gen   uint64
	in    Instr
	class uint8
	words uint8
	valid bool
}

// ipage is the predecode table for one SRAM page, allocated lazily the
// first time an instruction from that page is fetched through turbo.
type ipage [pageWords]ientry

// ifetch resolves th.PC through the predecode cache, returning the
// live entry on a hit — small enough to inline into the issue loop.
// Everything else — virgin or stale entries, PCs beyond SRAM (whose
// byte address wraps uint32 in the slow path's load) — returns nil and
// goes through fetchMiss. Faults trap through fetchSlow with identical
// diagnostics and are never cached.
func (c *Core) ifetch(th *Thread) *ientry {
	pc := th.PC
	if pc >= MemSize/4 {
		return nil
	}
	page := pc >> pageWordShift
	ip := c.icache[page]
	if ip == nil {
		return nil
	}
	e := &ip[pc&(pageWords-1)]
	if e.valid && e.gen == c.pageGen[page] {
		c.t.DecodeHits++
		return e
	}
	return nil
}

// fetchMiss decodes through the uncached path and populates the cache
// entry when one page stamp can guard the whole encoding (a two-word
// instruction straddling a page boundary cannot be cached).
func (c *Core) fetchMiss(th *Thread) (Instr, energy.InstrClass, uint32, bool) {
	pc := th.PC
	if pc >= MemSize/4 {
		return c.fetchSlow(th)
	}
	page := pc >> pageWordShift
	ip := c.icache[page]
	if ip == nil {
		ip = new(ipage)
		c.icache[page] = ip
	}
	e := &ip[pc&(pageWords-1)]
	if e.valid {
		c.t.DecodeStale++
	} else {
		c.t.DecodeMisses++
	}
	in, class, words, ok := c.fetchSlow(th)
	if !ok {
		return in, class, words, false
	}
	if words == 2 && pc&(pageWords-1) == pageWords-1 {
		// The immediate word is on the next page; one stamp cannot
		// guard both. Rare enough to always decode.
		return in, class, words, true
	}
	e.gen, e.in, e.class, e.words, e.valid = c.pageGen[page], in, uint8(class), uint8(words), true
	return in, class, words, true
}

// pickReady rotates the round-robin order and returns the first thread
// able to issue at time now, or nil. Shared by the slow and batched
// paths: the rotation is the architectural thread scheduler. The
// rotation is held as an offset into c.rr (bumping an index beats a
// memmove per issued instruction); everything outside the issue loop
// sees the materialized order via rrNormalize.
func (c *Core) pickReady(now sim.Time) *Thread {
	n := len(c.rr)
	idx := c.rrOff
	for i := 0; i < n; i++ {
		if idx >= n {
			idx -= n
		}
		cand := &c.threads[c.rr[idx]]
		idx++
		if cand.State == TReady && cand.nextReady <= now {
			if idx == n {
				idx = 0
			}
			c.rrOff = idx
			return cand
		}
	}
	// Every candidate rotated past and none issued: a full rotation is
	// the identity, so the offset stays.
	return nil
}

// rrNormalize materializes the round-robin rotation offset into the
// physical slice, so code that copies or appends to c.rr (snapshots,
// thread allocation) sees the logical issue order.
func (c *Core) rrNormalize() {
	if c.rrOff == 0 {
		return
	}
	var tmp [MaxThreads]int
	n := copy(tmp[:], c.rr[:c.rrOff])
	copy(c.rr, c.rr[c.rrOff:])
	copy(c.rr[len(c.rr)-n:], tmp[:n])
	c.rrOff = 0
}

// earliestReadyTime reports the soonest nextReady among ready threads,
// or -1 when no thread is ready at any time (the core then sleeps
// until something kicks it).
func (c *Core) earliestReadyTime() sim.Time {
	var next sim.Time = -1
	for _, id := range c.rr {
		t := &c.threads[id]
		if t.State == TReady && (next < 0 || t.nextReady < next) {
			next = t.nextReady
		}
	}
	return next
}

// turboGroup batches issue execution across the cores sharing one
// kernel. Grouping is what keeps fast-path throughput on multi-core
// machines: cores in cycle lockstep interleave their issue events at
// every timestamp, so a per-core batch would stop after one
// instruction; the group instead absorbs sibling firings and runs the
// whole machine's issue stream in one loop.
type turboGroup struct {
	k *sim.Kernel
	// q is a ring holding each entered member's next pending issue
	// slot at q[head:tail] (indices taken modulo len(q), a power of
	// two no smaller than the membership: a member has at most one
	// slot pending), sorted by time with insertion order breaking
	// ties — exactly the order the slow path would have armed the same
	// registrations, which the exit re-arm replays so every surviving
	// registration keeps its relative sequence order against all
	// others.
	q          []turboSlot
	head, tail uint

	// State of the batch in progress that run consults rarely, kept
	// here rather than in run's frame: every value live in the issue
	// loop is spilled and reloaded around the calls each slot makes.
	// start is the batch's first slot time and end the last time it
	// may run a slot at (the deadline of the RunUntil executing it, if
	// there is one); mayPreexec says cores may run ahead in this batch
	// — only inside RunUntil, since under Step and Run every return is
	// a point where the host may look, and only untraced, since trace
	// events carry the kernel's time; kw is the Waker of the kernel's
	// earliest registration as horizon last saw it.
	start, end sim.Time
	mayPreexec bool
	kw         sim.Waker
}

// turboSlot is one deferred issue arm.
type turboSlot struct {
	when sim.Time
	c    *Core
}

// newTurboGroup sizes a group's ring for the given membership.
func newTurboGroup(k *sim.Kernel, members int) *turboGroup {
	n := 1
	for n < members {
		n <<= 1
	}
	return &turboGroup{k: k, q: make([]turboSlot, n)}
}

// GroupTurbo joins cores sharing one kernel into a single batching
// group. Machine construction calls it once over all its cores;
// ungrouped cores batch solo. Group membership is static and carries
// no run-state, so it composes with Reset, Retune, snapshot and pool
// reuse unchanged.
func GroupTurbo(cores []*Core) {
	if len(cores) < 2 {
		return
	}
	g := newTurboGroup(cores[0].k, len(cores))
	for _, c := range cores {
		c.turbo = g
	}
}

// push inserts a deferred arm keeping the ring time-sorted; equal
// times keep insertion order (the slow path's arm order). The common
// case — the new arm is latest — is a plain append.
func (g *turboGroup) push(c *Core, when sim.Time) {
	mask := uint(len(g.q) - 1)
	if g.tail-g.head > mask {
		panic("xs1: turbo group queue holds more slots than members")
	}
	i := g.tail
	for i != g.head && g.q[(i-1)&mask].when > when {
		g.q[i&mask] = g.q[(i-1)&mask]
		i--
	}
	g.q[i&mask] = turboSlot{when: when, c: c}
	g.tail++
}

// headWhen is the time of the earliest deferred arm; the ring must not
// be empty.
func (g *turboGroup) headWhen() sim.Time { return g.q[g.head&uint(len(g.q)-1)].when }

// leads reports whether a core's next slot, at time next, is strictly
// the earliest thing left to run: within limit — before the kernel's
// registration, which wins ties because it predates the batch — and
// before every deferred arm, which win ties because they were armed at
// earlier slots. Such a slot runs next with no queue traffic at all.
func (g *turboGroup) leads(next, limit sim.Time) bool {
	return next >= 0 && next <= limit && (g.head == g.tail || next < g.headWhen())
}

// popHead removes and returns the earliest deferred arm.
func (g *turboGroup) popHead() turboSlot {
	s := g.q[g.head&uint(len(g.q)-1)]
	g.head++
	return s
}

// armPending hands every deferred arm back to the kernel, in order.
// Batches a communication instruction cuts short mostly have none, so
// the test inlines and the loop stays out of line.
func (g *turboGroup) armPending() {
	if g.head != g.tail {
		g.armAll()
	}
}

// armAll is armPending's loop.
func (g *turboGroup) armAll() {
	for ; g.head != g.tail; g.head++ {
		s := g.q[g.head&uint(len(g.q)-1)]
		s.c.scheduleIssue(s.when)
	}
}

// absorb consumes the kernel's next event if it is a member's issue
// timer, returning that member — or nil when the event belongs to no
// member (the batch's horizon). head is that event's Waker as horizon
// last reported it: only one registration can be the queue head, so the
// group recognises its own by type and membership and absorbs that one
// timer (AbsorbNext re-checks head identity).
func (g *turboGroup) absorb(head sim.Waker) *Core {
	f, ok := head.(*issueFirer)
	if !ok || f.c.turbo != g || !g.k.AbsorbNext(&f.c.issueTimer) {
		return nil
	}
	return f.c
}

// quiet reports whether nothing outside the core can re-time it: it is
// not halted and has no thread blocked on a channel end or on the
// reference clock — the only states a foreign event wakes (kickThread).
// A thread blocked in TJOIN is woken by this core's own TEND, which is
// a communication instruction and so never pre-executed.
func (c *Core) quiet() bool {
	if c.halted {
		return false
	}
	for i := range c.threads {
		if s := c.threads[i].State; s == TBlockedChan || s == TBlockedTime {
			return false
		}
	}
	return true
}

// preexec runs the core's own next issue slots alone on a local clock,
// starting with the slot at time at, and logs one (at, next) pair per
// slot for the group loop to replay. It is the group loop's slot step —
// pickReady, ifetch, run, the pipeline spacing, the idle probe — with
// the kernel left out, and it stops at the first slot later than limit
// (the caller's bound: before every pending registration, within the
// deadline), before the first communication instruction (the pick is
// undone, so the rotation is as the group loop expects to find it),
// after a trap, when the core goes to sleep, or when the log is full.
// A core something outside could wake does not pre-execute at all.
// The log is empty on entry: run and replay call it only then.
func (c *Core) preexec(at, limit sim.Time) {
	if !c.quiet() {
		return
	}
	period := c.clk.Period()
	depth := c.clk.Cycles(PipelineDepth)
	n, run := 0, 0
	for n < preexecWindow && at <= limit {
		off := c.rrOff
		th := c.pickReady(at)
		var next sim.Time = -1
		if th == nil {
			c.IdleSlots++
			if t := c.earliestReadyTime(); t >= 0 {
				next = c.alignUp(t)
			}
		} else {
			var in *Instr
			var class energy.InstrClass
			var words uint32
			ok := true
			e := c.ifetch(th)
			if e != nil {
				in, class, words = &e.in, energy.InstrClass(e.class), uint32(e.words)
			} else {
				var iv Instr
				iv, class, words, ok = c.fetchMiss(th)
				in = &iv
			}
			if ok && class == energy.ClassComm {
				// The group loop picks and fetches this slot again.
				c.rrOff = off
				if e != nil {
					c.t.DecodeHits--
				}
				break
			}
			if ok {
				c.run(th, in, class, words, at)
				c.t.BatchedInstrs++
			}
			if th.State == TReady {
				th.nextReady = max(th.nextReady, at+depth)
			}
			next = at + period
			if !ok || th.State == TTrapped {
				next = slotTrapped
			}
		}
		c.log[n] = preSlot{at: at, next: next}
		if run == n && next == at+period {
			run++
		}
		n++
		if next < 0 {
			break
		}
		at = next
	}
	c.logTail, c.logRun = n, run
	c.t.PreexecSlots += uint64(n)
}

// horizon reports the kernel's earliest registration — its time and its
// Waker — if this batch has to respect it (one beyond end is left for a
// later RunUntil), and the latest time at which a slot may run without
// the kernel intervening: strictly before that registration, else end.
func (g *turboGroup) horizon() (kt sim.Time, kok bool, limit sim.Time) {
	kt, g.kw, kok = g.k.NextForeign()
	if kok && kt <= g.end {
		return kt, true, kt - 1
	}
	return 0, false, g.end
}

// replay accounts for the slot in hand, which its core ran ahead of the
// clock: it retires the head of the core's log — necessarily this slot,
// logged for exactly this time — and returns the core's next slot time
// for run to place, as if run had just executed the instruction. When
// what follows is the plain round trip — the core's next slot goes into
// the ring behind the ring's head, and that head, within limit, is the
// next slot in global order and pre-executed too — replay makes the
// trip itself and carries on, so cores running ahead in step spend
// their time here: whole turns of the ring retired at once where the
// ring provably only rotates (rounds), otherwise a log pop, a push and
// a pop per slot, and a fresh window pre-executed on the spot whenever
// a log drains. Everything else (the batch cap, a sleeping or trapped
// core, a core that keeps the lead, the horizon, a core with nothing
// logged) goes back to run. ok is false when the slot in hand was not
// pre-executed and run has to execute it.
//
// Nothing in here reads the kernel, so its clock is stepped once, on
// the way out, for every slot the call went through: slots counts
// them, their times never decrease (a popped slot earlier than the one
// before it panics), and the last of them is now.
func (g *turboGroup) replay(cur *Core, now sim.Time, slots int, limit sim.Time) (_ *Core, _ sim.Time, _ int, next sim.Time, ok bool) {
	if !g.mayPreexec && cur.logTail != 0 {
		// Slots are logged within the deadline of the RunUntil that
		// pre-executed them and replayed before it returns.
		panic(fmt.Sprintf("xs1: core %v holds pre-executed slots outside the untraced RunUntil that logged them", cur.node))
	}
	entered := slots
	next = -1
	// refused counts down the slots to go one by one after the ring
	// refused a round step: one turn, until the refused core is in hand
	// again, so a ring that cannot step in rounds is not asked per slot.
	refused := 0
	for cur.logTail != 0 {
		e := cur.log[cur.logHead]
		if e.at != now {
			panic(fmt.Sprintf("xs1: core %v reached its issue slot at %v but pre-executed it for %v",
				cur.node, now, e.at))
		}
		if refused > 0 {
			refused--
		} else if cur.logRun-cur.logHead >= 2 {
			if t, n := g.rounds(cur, now, slots, limit); n > 0 {
				now, slots = t, slots+n
				continue
			}
			refused = int(g.tail - g.head)
		}
		if cur.logHead++; cur.logHead == cur.logTail {
			cur.drained()
		}
		if slots+1 >= turboBatchCap || g.head == g.tail {
			next, ok = e.next, true
			break
		}
		if hw := g.headWhen(); e.next < hw || hw > limit {
			next, ok = e.next, true
			break
		}
		if cur.logTail == 0 {
			cur.preexec(e.next, limit)
		}
		slots++
		g.push(cur, e.next)
		s := g.popHead()
		if s.when < now {
			panic(fmt.Sprintf("xs1: turbo group queue handed out core %v's slot at %v after one at %v",
				s.c.node, s.when, now))
		}
		cur, now = s.c, s.when
	}
	g.k.StepN(now, slots-entered)
	return cur, now, slots, next, ok
}

// drained accounts for a log replayed to its end and empties it.
func (c *Core) drained() {
	c.t.ReplayedSlots += uint64(c.logTail)
	c.logHead, c.logTail, c.logRun = 0, 0, 0
}

// rounds retires whole turns of the ring at once. cur holds the slot in
// hand, at now, and q[head:tail] the other members' next slots. If cur
// and every ring member have pre-executed slots that each re-arm exactly
// one period later, all on one period, and the ring's tail is no later
// than now + period, then every replayed slot's push lands at the
// ring's tail (push keeps equal times in insertion order) and every pop
// takes its head: the ring only rotates, and after one turn — one slot
// per member, m in all — it is the same ring one period later, with cur
// in hand again. By induction r turns are r·m trips through replay's
// slot loop whose whole effect is each member's log head moved on by r,
// every ring time and now by r periods, and r·m slots for replay to
// count (and step the kernel for). r is the shortest run of such slots
// left in any member's log, bounded so that no slot popped lies beyond
// limit — the latest is cur's, at now + r·period — and that the batch
// cap still falls on the very slot it would have: every one of the r·m
// trips has to pass replay's slots+1 < turboBatchCap. A log that drains
// does so on the last turn and is refilled on the spot from the time
// the ring now holds for it, as the slot loop does before its push.
//
// It reports the time of the slot then in hand and the number of slots
// retired, 0 when the ring may do anything but rotate — a member with
// nothing logged, another period, a slot off its grid next, a tail
// beyond now + period, no room under limit or the cap — having changed
// nothing. A member whose log does not begin at its ring time was
// re-timed behind the group's back: that panics, as it does in replay.
func (g *turboGroup) rounds(cur *Core, now sim.Time, slots int, limit sim.Time) (sim.Time, int) {
	if g.head == g.tail {
		return now, 0
	}
	mask := uint(len(g.q) - 1)
	period := cur.clk.Period()
	m := int(g.tail-g.head) + 1
	if g.q[g.head&mask].when < now || g.q[(g.tail-1)&mask].when > now+period {
		return now, 0
	}
	r := min(cur.logRun-cur.logHead, (turboBatchCap-1-slots)/m)
	if room := (limit - now) / period; room < sim.Time(r) {
		r = int(room)
	}
	for i := g.head; i != g.tail && r > 0; i++ {
		s := &g.q[i&mask]
		c := s.c
		if c.logTail == 0 || c.clk.Period() != period {
			return now, 0
		}
		if at := c.log[c.logHead].at; at != s.when {
			panic(fmt.Sprintf("xs1: core %v is due its issue slot at %v but pre-executed it for %v",
				c.node, s.when, at))
		}
		r = min(r, c.logRun-c.logHead)
	}
	if r <= 0 {
		return now, 0
	}
	span := sim.Time(r) * period
	for i := g.head; i != g.tail; i++ {
		s := &g.q[i&mask]
		s.when += span
		s.c.retire(r, s.when, limit)
	}
	now += span
	cur.retire(r, now, limit)
	cur.t.RoundSlots += uint64(r * m)
	return now, r * m
}

// retire moves the log head past r slots a round step replayed; a log
// that drains is refilled from the core's next slot, at time at.
func (c *Core) retire(r int, at, limit sim.Time) {
	if c.logHead += r; c.logHead == c.logTail {
		c.drained()
		c.preexec(at, limit)
	}
}

// run executes issue slots in a tight loop from the firing that
// invoked it until the next foreign kernel event, the RunUntil
// deadline, a communication/trap boundary, or the batch cap. Slots
// across members execute in global (time, sequence) order: a pending
// sibling registration always precedes a deferred in-batch arm at the
// same timestamp because it was armed before the batch began. Every
// slot advances the kernel exactly as its slow-path arm/fire would
// (AbsorbNext and the opening firing count a firing; StepTo counts a
// firing and a sequence number standing in for the deferred arm), and
// the exit re-arms consume the remaining sequence numbers in arm
// order, so kernel counters and all registration order match the slow
// path at every boundary. A slot its core has pre-executed goes through
// all of that unchanged; only the instruction is replaced by the
// logged outcome.
func (g *turboGroup) run(first *Core) {
	k := g.k
	now := k.Now()
	g.start = now
	binstrs := int64(0)
	g.end = timeMax
	deadline, hasDeadline := k.Deadline()
	if hasDeadline {
		g.end = deadline
	}
	g.mayPreexec = hasDeadline && k.Recorder() == nil
	kt, kok, limit := g.horizon()
	cur := first
	slots := 0
	why := ExitForeign
batch:
	for {
		var next sim.Time = -1
		replayed := false
		if cur.logTail != 0 {
			cur, now, slots, next, replayed = g.replay(cur, now, slots, limit)
		}
		if replayed {
			if next == slotTrapped {
				why = ExitTrap
				slots++
				break
			}
			slots++
			if g.leads(next, limit) && slots < turboBatchCap {
				k.StepTo(next)
				now = next
				continue
			}
		} else {
			// Execute cur's slot, and its following slots for as long
			// as they lead — which is all a lone awake core ever does,
			// in this inner loop with nothing of the replay machinery
			// live across it.
			for {
				th := cur.pickReady(now)
				if th == nil {
					cur.IdleSlots++
					next = -1
					if t := cur.earliestReadyTime(); t >= 0 {
						next = cur.alignUp(t)
					}
					// next < 0: the member sleeps until something kicks
					// it — no arm, exactly the slow path.
				} else {
					var in *Instr
					var class energy.InstrClass
					var words uint32
					ok := true
					if e := cur.ifetch(th); e != nil {
						in, class, words = &e.in, energy.InstrClass(e.class), uint32(e.words)
					} else {
						var iv Instr
						iv, class, words, ok = cur.fetchMiss(th)
						in = &iv
					}
					if ok && class == energy.ClassComm {
						// The instruction may arm timers or wake threads
						// as it runs; hand the other members' arms back
						// first so everything it registers lands after
						// them, preserving the slow path's arm order (it
						// armed those at their own earlier slots).
						g.armPending()
						cur.run(th, in, class, words, now)
						cur.commMark = cur.InstrCount
						binstrs++
						if th.State == TReady {
							th.nextReady = max(th.nextReady, now+cur.clk.Cycles(PipelineDepth))
						}
						why = ExitComm
						slots++
						break batch
					}
					if ok {
						cur.run(th, in, class, words, now)
						binstrs++
					}
					if th.State == TReady {
						th.nextReady = max(th.nextReady, now+cur.clk.Cycles(PipelineDepth))
					}
					if !ok || th.State == TTrapped {
						// Trap boundary: fall back to the event loop.
						why = ExitTrap
						slots++
						break batch
					}
					next = now + cur.clk.Period()
					// If cur has been computing for a while and its slots
					// interleave with other members', let it run its own
					// slots ahead — strictly before the earliest thing
					// the kernel holds, within the deadline — and replay
					// them as the loop comes round. (A lone awake core
					// finds the ring empty.)
					if n := cur.InstrCount; n&(preexecStreak-1) == 0 && n-cur.commMark >= preexecStreak &&
						g.mayPreexec && g.head != g.tail {
						cur.preexec(next, limit)
						slots++
						break
					}
				}
				slots++
				if !g.leads(next, limit) || slots >= turboBatchCap {
					break
				}
				k.StepTo(next)
				now = next
			}
		}
		if next >= 0 {
			g.push(cur, next)
		}
		if slots >= turboBatchCap {
			why = ExitCap
			break
		}
		// Select the next slot in global order.
		if kok && (g.head == g.tail || kt <= g.headWhen()) {
			m := g.absorb(g.kw)
			if m == nil {
				break // foreign event next: horizon reached
			}
			now = kt
			cur = m
			kt, kok, limit = g.horizon()
			continue
		}
		if g.head == g.tail {
			why = ExitAsleep // nothing left to arm
			break
		}
		if g.headWhen() > g.end {
			why = ExitDeadline
			break
		}
		s := g.popHead()
		k.StepTo(s.when)
		now = s.when
		cur = s.c
	}
	g.armPending()
	if why == ExitComm || why == ExitTrap {
		// The slot that ended the batch re-arms its core after every
		// other member, as the slow path armed it: at its own slot,
		// the latest.
		cur.scheduleIssue(now + cur.clk.Period())
	}
	first.t.Batches++
	first.t.BatchedInstrs += uint64(binstrs)
	first.t.Exits[why]++
	if rec := k.Recorder(); rec != nil {
		rec.EmitSpan(int64(g.start), int64(now), trace.KindTurboBatch,
			int32(first.node), binstrs, int64(slots))
	}
}
