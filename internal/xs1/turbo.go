package xs1

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/trace"
)

// The execution fast path, in six statements; the code that holds each
// says why it is sound.
//
//  1. A window is (core state, at, limit) → folded log (window.go): a core
//     on a compute streak runs its own slots ahead of the kernel clock,
//     only while untraced, within the deadline of the kernel's drain and
//     before every pending registration, never while an outside event
//     could wake it.
//  2. The group owns order (turboGroup.run, replay): the cores sharing a
//     kernel issue in one loop in global (time, sequence) order, and every
//     slot, pre-executed or not, is accounted for at its own time, so
//     kernel Now/Seq/Fired and arm order are the unbatched loop's.
//  3. A round is a rotation (turboGroup.rounds): when every ring member
//     holds the same block, r blocks of the ring are retired at once.
//  4. A fan-out is who computes windows (turboGroup.refill): any host
//     thread may, and the simulation goroutine joins them all before it
//     replays, so no width changes a byte.
//  5. A count is a slot nobody can observe (stall.go): a blocked thread's
//     doomed retry and idle probe are accounted for without a firing.
//  6. A twin adopts a window it would have computed (twin.go): asked for
//     at the time its twins hold, one window serves cores in one state.
//
// The scheduler, the pipeline spacing and the charge are the slow path's
// (pickReady, run, chargeInstr), and where the fixed rotation stands in
// for pickReady (Core.rotate) it leaves what pickReady would have, so
// "turbo ≡ step-by-step" is structural, guarded by the differential tests.

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
	// ExitDeadline: the next slot lies beyond the drain's deadline.
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
	// no drain (RunUntil or Run) is executing.
	PreexecSlots  uint64
	ReplayedSlots uint64
	// AdoptedSlots counts the pre-executed slots a core adopted from a
	// twin's window (twin.go) instead of computing them. They count in
	// PreexecSlots, BatchedInstrs and RotationSlots as the twin's window
	// did, and in none of the decode counters.
	AdoptedSlots uint64
	// RoundSlots counts the replayed slots that were retired by whole
	// blocks of the group ring (turboGroup.rounds) rather than one by one.
	RoundSlots uint64
	// RotationSlots counts the issue slots run in the fixed rotation
	// (Core.rotate) rather than picked by a scan, in windows and in the
	// lone-core loop alike.
	RotationSlots uint64
	// CountedSlots counts the issue slots accounted for without a firing
	// (stall.go): the doomed retry and the idle probe after a channel-end
	// wake that cannot satisfy its thread, and the idle probe after a
	// communication instruction that blocked. They are not batches: they
	// add nothing to Batches, BatchedInstrs, Exits or BatchLen.
	CountedSlots uint64
	// DoomedWakes counts the channel-end wakes that found their thread's
	// instruction still short of what it needs, and CountedWakes those
	// whose retry and idle probe were counted (two slots each) rather than
	// fired; BlockProbes counts the communication instructions that
	// blocked on a channel end inside a batch with no wake already on its
	// way — the blocks an idle probe follows — and CountedProbes those
	// whose probe was counted (one slot each).
	DoomedWakes, CountedWakes  uint64
	BlockProbes, CountedProbes uint64
	// Fanouts counts the times windows were offered to the helper pool
	// (turboGroup.refill with enough work to share and a spare host
	// processor); HelpedWindows counts the windows a helper, not the
	// simulation goroutine, then pre-executed. Neither says anything about
	// the simulation — they depend on GOMAXPROCS and on who was quicker —
	// only about who computed it.
	Fanouts       uint64
	HelpedWindows uint64
	// BatchLen is the histogram of batch lengths in issue slots,
	// pre-executed ones included: BatchLen[i] counts the batches of at
	// most 1<<i slots and more than 1<<(i-1).
	BatchLen [BatchLenBuckets]uint64
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
	s.AdoptedSlots += o.AdoptedSlots
	s.RoundSlots += o.RoundSlots
	s.RotationSlots += o.RotationSlots
	s.CountedSlots += o.CountedSlots
	s.DoomedWakes += o.DoomedWakes
	s.CountedWakes += o.CountedWakes
	s.BlockProbes += o.BlockProbes
	s.CountedProbes += o.CountedProbes
	s.Fanouts += o.Fanouts
	s.HelpedWindows += o.HelpedWindows
	for i, n := range o.BatchLen {
		s.BatchLen[i] += n
	}
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
	// turboBatchCap bounds one batch (instructions plus idle probes, of
	// all the group's members together) by the host time it may hold the
	// simulation goroutine before control returns to the kernel loop —
	// the latency a check made between batches, such as a cancelled
	// context, inherits. A slot costs 0.3 to 1.2 ns untraced, so a full
	// batch runs about 1 ms; a recorder adds 25 to 40 ns a slot, so traced
	// it runs about 37 ms. It is one constant, not an allotment per member:
	// the ring's size changes what a batch simulates, not how long it runs.
	turboBatchCapLog2 = 20
	turboBatchCap     = 1 << turboBatchCapLog2
	// BatchLenBuckets is the number of TurboStats.BatchLen buckets: upper
	// bounds 1, 2, 4, ... up to the batch cap.
	BatchLenBuckets = turboBatchCapLog2 + 1

	// preexecStreak is how many instructions a core must have issued
	// since it last reached a communication instruction before it tries
	// to pre-execute, or a lone core to issue its rotation:
	// communication-bound code, whose compute runs are a few instructions
	// long, never pays for a window or a rotation it would abandon at
	// once. A core asks for a window before every preexecStreak-th
	// instruction it issues (a power of two), so the question itself
	// costs the exact path one test of a counter per slot.
	preexecStreak = 32
	// preexecJoin is how many instructions since its last communication
	// instruction a member with an empty log must have issued to be given
	// a window because another member's streak opened one. It is under a
	// streak: that member asks before it issues an instruction, so twins
	// behind it in the ring can be one short of a streak, and a whole one
	// would make each of them open a window alone.
	preexecJoin = preexecStreak / 2
	// fanoutMinSlots is how many issue slots the windows handed out at one
	// moment must be able to run, between them, before the pool is offered
	// a share (turboGroup.refill). Handing off is not free: on the 2-vCPU
	// reference VM a goroutine parked on a channel starts 11 us (median; 55
	// us at the 99th percentile, 70 us on a busier day) after the send that
	// wakes it, and the send itself costs the sender 10 us of futex wake,
	// 1000 sends 2 ms apart, measured with a channel and a WaitGroup as
	// here. A window slot of a loaded slice, issued in the fixed rotation,
	// costs 11 ns on one processor of a 2-vCPU VM half as fast as that one
	// (BenchmarkTurbo/on at GOMAXPROCS=1, the traced sim-compute
	// benchmark), about 6 ns there: the wake is 2 k slots, and under 12 k
	// the helper arrives after the work is done. The constant is nearly
	// three times that, so a fan-out always has more to share than it
	// costs, and the ADC artifact's 500-slot sample horizons (8 k slots a
	// slice) refill in line.
	fanoutMinSlots = 1 << 15
)

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
	// may run a slot at (the deadline of the drain executing it);
	// untraced says no recorder is attached, whose events carry the
	// kernel's time, so a lone core may issue its rotation before the
	// kernel steps over it and cores may run ahead in this batch; kw is
	// the Waker of the kernel's earliest registration as horizon last saw
	// it.
	start, end sim.Time
	untraced   bool
	kw         sim.Waker

	// fan is the record of the windows being handed out (refill), and
	// twins the members that adopt one of them after the join instead of
	// computing their own (twin.go); classes numbers the twin classes the
	// group has opened.
	fan     fanout
	twins   []adoption
	classes int
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
	return &turboGroup{k: k, q: make([]turboSlot, n), fan: fanout{wins: make([]window, 0, n)}, twins: make([]adoption, 0, n)}
}

// GroupTurbo joins cores sharing one kernel into a single batching
// group. Machine construction calls it once over all its cores;
// ungrouped cores batch solo. Group membership is static and carries
// no run-state, so it composes with Retune, snapshot restore and pool
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

// window is one core's share of a fan-out: pre-execute c from its next
// slot, at time at. gen and rot are c's write generation and rotation
// count as the window opens, for its twins to adopt by (twin.go).
type window struct {
	c        *Core
	at       sim.Time
	gen, rot uint64
}

// fanout is a group's record of the windows being handed out: wins, on
// backing sized for the whole membership when the group is built, each
// to be pre-executed up to limit by whoever claims it. word holds
// the record's generation in its high half and the count of windows not
// yet claimed in its low half; a claim is a compare-and-swap that takes
// the count down by one while the generation is the claimant's own. The
// simulation goroutine rewrites the record only after the join (wg), so
// only between fan-outs, and opens each under a new generation: a helper
// that took an offer and arrives after its fan-out is over finds another
// generation in word and touches nothing else — it neither claims a
// window of a fan-out it was not offered nor reads a field that is being
// rewritten. The record is part of the group, so handing out windows
// allocates nothing.
type fanout struct {
	wins  []window
	limit sim.Time
	gen   uint32
	word  atomic.Uint64
	wg    sync.WaitGroup
	// fault holds what the first window to panic panicked with, for the
	// simulation goroutine to raise again after the join.
	fault atomic.Pointer[any]
	// beforeClaim, when set, runs on the simulation goroutine between the
	// offers and its first claim, for a test to order the claims.
	beforeClaim func()
}

// add puts c's window, from time at, on the record if c can take one —
// nothing outside the core can re-time it and the slot lies within limit
// — and reports how many slots the window can run: one per period up to
// limit.
func (f *fanout) add(c *Core, at, limit sim.Time) int64 {
	if at > limit || !c.quiet() {
		return 0
	}
	f.wins = append(f.wins, window{c: c, at: at, gen: c.memGen, rot: c.t.RotationSlots})
	return int64((limit-at)/c.clk.Period()) + 1
}

// claim takes one unclaimed window of generation gen and returns its
// index, or -1 when there is none left or the record has moved on.
func (f *fanout) claim(gen uint32) int {
	for {
		v := f.word.Load()
		if uint32(v>>32) != gen || uint32(v) == 0 {
			return -1
		}
		if f.word.CompareAndSwap(v, v-1) {
			return int(uint32(v)) - 1
		}
	}
}

// work claims windows of generation gen one at a time and pre-executes
// them until none is left. The simulation goroutine and every helper
// that took an offer run it side by side; helped says which it is.
func (f *fanout) work(gen uint32, helped bool) {
	for i := f.claim(gen); i >= 0; i = f.claim(gen) {
		f.window(i, helped)
	}
}

// window pre-executes window i. A panic under it is kept for refill to
// raise on the simulation goroutine once every window is accounted for:
// raised here it would unwind a helper, or the simulation goroutine
// with helpers still writing to cores.
func (f *fanout) window(i int, helped bool) {
	defer f.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			fault := r // the copy escapes, on this path only
			f.fault.CompareAndSwap(nil, &fault)
		}
	}()
	w := f.wins[i]
	w.c.preexec(w.at, f.limit)
	if helped {
		w.c.t.HelpedWindows++
	}
}

// offer is what a parked helper receives: the record to work on and the
// generation it may claim under.
type offer struct {
	f   *fanout
	gen uint32
}

// helperPool is goroutines parked on offers, each pre-executing the
// windows of one fan-out at a time.
type helperPool struct {
	// offers is unbuffered, and sends to it never block: an offer goes to
	// a helper parked in receive at that instant or to nobody.
	offers chan offer
	// started counts the helpers.
	started atomic.Int32
}

// helpers is the process-wide pool every group's fan-outs are offered
// to: one helper per host processor beyond the offering goroutine's own,
// started on first use and never stopped — they hold nothing while
// parked, and there is no point at which a process that simulates is
// done simulating. Nested callers (sweep.Map workers, concurrent
// renders) share it.
var helpers = helperPool{offers: make(chan offer)}

// helperWidth reports how many helpers a fan-out may be offered to —
// GOMAXPROCS less the simulation goroutine's own processor, so none on a
// lone processor — and parks that many if fewer have been started.
func helperWidth() int {
	w := runtime.GOMAXPROCS(0) - 1
	for n := helpers.started.Load(); int(n) < w; n = helpers.started.Load() {
		if helpers.started.CompareAndSwap(n, n+1) {
			go func() {
				for o := range helpers.offers {
					o.f.work(o.gen, true)
				}
			}()
		}
	}
	return w
}

// refill hands out windows: to cur from its slot at time at, if its log is
// empty (in run, the slot in hand, asked for before it issues), and to
// every ring member that could take one at this moment — log empty, on a
// compute streak, from the time the ring holds for it. Who computes a
// window changes nothing it contains: preexec is a function of the core's
// own state, at and limit, and touches nothing else, so the windows are
// independent of one another, of order and of goroutine. A twin of a core
// given a window from its own time is not given one (take): it adopts that
// window's result once the join is over (adoptAll). When the windows can
// run at least fanoutMinSlots slots between them, helpers parked in the
// pool are offered a share — one offer per window beyond the first, at
// most one per spare host processor, never blocking: a busy pool costs the
// failed sends and nothing more. The simulation goroutine then claims
// windows itself until none is left (help-first), and joins: it returns
// only when every window has been computed, which is the happens-before
// edge for every field of the cores the helpers wrote. Nothing replays,
// arms, steps the kernel or returns to it while a fan-out is open. One
// eligible core, too little work or a lone host processor is the same call
// with nobody else claiming.
func (g *turboGroup) refill(cur *Core, at, limit sim.Time) {
	f := &g.fan
	f.wins, g.twins = f.wins[:0], g.twins[:0]
	var slots int64
	if cur.logTail == 0 {
		slots = g.take(cur, at, limit)
	}
	mask := uint(len(g.q) - 1)
	for i := g.head; i != g.tail; i++ {
		s := &g.q[i&mask]
		if c := s.c; c.logTail == 0 && c.InstrCount-c.commMark >= preexecJoin {
			slots += g.take(c, s.when, limit)
		}
	}
	n := len(f.wins)
	if n == 0 {
		return
	}
	f.limit = limit
	f.gen++
	f.wg.Add(n)
	f.word.Store(uint64(f.gen)<<32 | uint64(n))
	if n > 1 && slots >= fanoutMinSlots {
		if w := helperWidth(); w > 0 {
			cur.t.Fanouts++
			for i := min(w, n-1); i > 0; i-- {
				select {
				case helpers.offers <- offer{f: f, gen: f.gen}:
				default:
				}
			}
		}
	}
	if f.beforeClaim != nil {
		f.beforeClaim()
	}
	f.work(f.gen, false)
	f.wg.Wait()
	if r := f.fault.Load(); r != nil {
		f.fault.Store(nil)
		panic(*r)
	}
	g.adoptAll()
}

// horizon reports the kernel's earliest registration — its time and its
// Waker — if this batch has to respect it (one beyond end is left for a
// later drain), and the latest time at which a slot may run without
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
// their time here: whole blocks of the ring retired at once where the
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
	if !g.untraced && cur.logTail != 0 {
		// Slots are logged within the deadline of the untraced drain
		// that pre-executed them and replayed before it returns.
		panic(fmt.Sprintf("xs1: core %v holds pre-executed slots outside the untraced drain that logged them", cur.node))
	}
	entered := slots
	next = -1
	// refused counts down the slots to go one by one after the ring
	// refused a round step: one turn, until the refused core is in hand
	// again, so a ring that cannot step in rounds is not asked per slot.
	refused := 0
	for cur.logTail != 0 {
		if cur.logAt != now {
			panic(fmt.Sprintf("xs1: core %v reached its issue slot at %v but pre-executed it for %v",
				cur.node, now, cur.logAt))
		}
		if refused > 0 {
			refused--
		} else if t, n := g.rounds(cur, now, slots, limit); n > 0 {
			now, slots = t, slots+n
			continue
		} else {
			refused = int(g.tail - g.head)
		}
		after := cur.pop()
		if slots+1 >= turboBatchCap || g.head == g.tail {
			next, ok = after, true
			break
		}
		if hw := g.headWhen(); after < hw || hw > limit {
			next, ok = after, true
			break
		}
		if cur.logTail == 0 {
			g.refill(cur, after, limit)
		}
		slots++
		g.push(cur, after)
		s := g.popHead()
		if s.when < now {
			panic(fmt.Sprintf("xs1: turbo group queue handed out core %v's slot at %v after one at %v",
				s.c.node, s.when, now))
		}
		cur, now = s.c, s.when
	}
	g.k.StepN(now, slots-entered)
	// Every slot the call went through was replayed, and so was the one
	// it hands back to run; the count goes to the core in hand, as
	// RoundSlots does — the counters are only ever summed.
	cur.t.ReplayedSlots += uint64(slots - entered)
	if ok {
		cur.t.ReplayedSlots++
	}
	return cur, now, slots, next, ok
}

// rounds retires whole blocks of the ring at once. cur holds the slot in
// hand, at now, and q[head:tail] the other members' next slots. If every
// ring member's head run has the block of cur's — as many slots, the same
// gap, on the same period — and stands at cur's slot of it, at now, or,
// having had its turn, one slot on, then all of them share one series of
// slot times and stand at most one place apart in it, in ring order: every
// replayed slot's push lands at the ring's tail (push keeps equal times in
// insertion order) and every pop takes its head. The ring only rotates,
// and after one block of every member — n slots each, m·n in all — it is
// the same ring one stride later, with cur in hand again. By induction r
// blocks are r·m·n trips through replay's slot loop whose whole effect is
// each member's repeat count down by r, every ring time and now on by r
// strides, and r·m·n slots for replay to count (and step the kernel for).
// r is the fewest whole blocks any member's head run holds
// (Core.wholeBlocks), bounded so that no slot popped lies beyond limit —
// the latest is cur's, at now + r strides — and that the batch cap still
// falls on the very slot it would have: every one of the trips has to pass
// replay's slots+1 < turboBatchCap. A log that empties does so on the last
// block, and every one that did is given a fresh window from the time the
// ring now holds for it, as the slot loop does before its push.
//
// It reports the time of the slot then in hand and the number of slots
// retired, 0 when the ring may do anything but rotate — a member with
// nothing logged, another block, period or place, no room under limit or
// the cap — having changed nothing. It also refuses while the kernel's
// earliest registration is a member's issue slot: that member is part of
// the rotation and not yet in the ring, and the ring steps only whole. A
// member whose log does not begin at its ring time was re-timed behind the
// group's back: that panics, as it does in replay.
func (g *turboGroup) rounds(cur *Core, now sim.Time, slots int, limit sim.Time) (sim.Time, int) {
	r := cur.wholeBlocks()
	if r <= 0 || g.head == g.tail {
		return now, 0
	}
	if f, ok := g.kw.(*issueFirer); ok && f.c.turbo == g {
		return now, 0
	}
	mask := uint(len(g.q) - 1)
	period := cur.clk.Period()
	e := cur.log[cur.logHead]
	// on is where a member that has had its turn stands: cur's next slot.
	onAt, onLeft := now+period, e.left-1
	if e.left == 1 {
		onAt, onLeft = now+e.gap, e.n
	}
	stride := sim.Time(e.n-1)*period + e.gap
	each := (int(g.tail-g.head) + 1) * e.n
	r = min(r, (turboBatchCap-1-slots)/each)
	if room := (limit - now) / stride; room < sim.Time(r) {
		r = int(room)
	}
	for i := g.head; i != g.tail && r > 0; i++ {
		s := &g.q[i&mask]
		c := s.c
		if c.logTail == 0 || c.clk.Period() != period {
			return now, 0
		}
		if c.logAt != s.when {
			panic(fmt.Sprintf("xs1: core %v is due its issue slot at %v but pre-executed it for %v",
				c.node, s.when, c.logAt))
		}
		h := &c.log[c.logHead]
		if h.n != e.n || h.gap != e.gap || !(s.when == now && h.left == e.left || s.when == onAt && h.left == onLeft) {
			return now, 0
		}
		r = min(r, c.wholeBlocks())
	}
	if r <= 0 {
		return now, 0
	}
	span := sim.Time(r) * stride
	emptied := false
	for i := g.head; i != g.tail; i++ {
		s := &g.q[i&mask]
		s.when += span
		if s.c.retire(r, span) {
			emptied = true
		}
	}
	now += span
	if cur.retire(r, span) {
		emptied = true
	}
	cur.t.RoundSlots += uint64(r * each)
	if emptied {
		g.refill(cur, now, limit)
	}
	return now, r * each
}

// run executes issue slots in a tight loop from the firing that
// invoked it until the next foreign kernel event, the drain's
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
	g.end = k.Deadline()
	g.untraced = k.Recorder() == nil
	kt, kok, limit := g.horizon()
	cur := first
	slots := 0
	why := ExitForeign
	// blocked is the thread whose communication instruction ended the
	// batch by blocking on a channel end, if that is how it ended.
	var blocked *Thread
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
			// live across it. On a compute streak, where its threads
			// stand in the fixed rotation, it issues that up to limit and
			// the cap, and the kernel takes one counted step for all of it.
			for {
				if g.untraced && g.head == g.tail && cur.InstrCount-cur.commMark >= preexecStreak {
					if r := cur.rotate(now, limit, turboBatchCap-slots); r.instrs > 0 {
						binstrs += int64(r.instrs)
						slots += r.instrs + r.probes
						k.StepN(r.last, r.instrs+r.probes-1)
						now = r.last
						if r.trapped {
							why = ExitTrap
							break batch
						}
						if next = r.next; !g.leads(next, limit) || slots >= turboBatchCap {
							break
						}
						k.StepTo(next)
						now = next
					}
				}
				// A slot that would issue a streak's last instruction asks first,
				// from now, where its twins behind it stand; a probe never asks.
				if n := cur.InstrCount + 1; n&(preexecStreak-1) == 0 && n-cur.commMark >= preexecStreak &&
					g.untraced && g.head != g.tail {
					if off := cur.rrOff; cur.pickReady(now) != nil {
						cur.rrOff = off
						if g.refill(cur, now, limit); cur.logTail != 0 {
							continue batch
						}
					}
				}
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
					e, _ := cur.fetch(th)
					if e != nil && e.class == uint8(energy.ClassComm) {
						// The instruction may arm timers or wake threads
						// as it runs; hand the other members' arms back
						// first so everything it registers lands after
						// them, preserving the slow path's arm order (it
						// armed those at their own earlier slots).
						g.armPending()
						cur.issue(th, e, now)
						cur.commMark = cur.InstrCount
						cur.leave()
						binstrs++
						if th.State == TBlockedChan {
							blocked = th
						}
						why = ExitComm
						slots++
						break batch
					}
					if e != nil {
						cur.issue(th, e, now)
						binstrs++
					}
					if e == nil || th.State == TTrapped {
						// Trap boundary: fall back to the event loop.
						why = ExitTrap
						slots++
						break batch
					}
					next = now + cur.clk.Period()
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
		// the latest — unless the instruction blocked, the core has
		// nothing else to run and the idle probe that slot would be can
		// be counted here and now.
		if next := now + cur.clk.Period(); blocked == nil || !cur.countIdleProbe(blocked, next) {
			cur.scheduleIssue(next)
		}
	}
	first.t.Batches++
	first.t.BatchedInstrs += uint64(binstrs)
	first.t.Exits[why]++
	first.t.BatchLen[bits.Len(uint(slots-1))]++ // a batch is 1 to turboBatchCap slots
	if rec := k.Recorder(); rec != nil {
		rec.EmitSpan(int64(g.start), int64(now), trace.KindTurboBatch,
			int32(first.node), binstrs, int64(slots))
	}
}
