package xs1

import (
	"sync/atomic"

	"swallow/internal/energy"
	"swallow/internal/sim"
	"swallow/internal/trace"
)

// Turbo is the core's execution fast path, two mechanisms deep:
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

// TurboStats are cumulative process-wide fast-path counters.
type TurboStats struct {
	// Batches counts issueBatch invocations (one per issue-timer
	// firing while turbo is on); BatchedInstrs counts instructions they
	// executed. Their ratio is the realised batch length.
	Batches       uint64
	BatchedInstrs uint64
	// DecodeHits/DecodeMisses/DecodeStale count predecode-cache
	// lookups: hits served an entry, misses decoded a virgin slot,
	// stale entries were invalidated by a newer page generation and
	// re-decoded.
	DecodeHits   uint64
	DecodeMisses uint64
	DecodeStale  uint64
}

// turboStats aggregates across all cores; cores accumulate in plain
// per-core counters on the hot path and fold them in here via
// FlushTurboStats at machine-run boundaries.
var turboStats struct {
	batches, batchedInstrs, decodeHits, decodeMisses, decodeStale atomic.Uint64
}

// ReadTurboStats snapshots the process-wide fast-path counters.
func ReadTurboStats() TurboStats {
	return TurboStats{
		Batches:       turboStats.batches.Load(),
		BatchedInstrs: turboStats.batchedInstrs.Load(),
		DecodeHits:    turboStats.decodeHits.Load(),
		DecodeMisses:  turboStats.decodeMisses.Load(),
		DecodeStale:   turboStats.decodeStale.Load(),
	}
}

// FlushTurboStats folds the core's accumulated fast-path counters into
// the process-wide totals. Machine run loops call it once per poll
// step, keeping atomics off the per-instruction path.
func (c *Core) FlushTurboStats() {
	if c.tBatches|c.tHits|c.tMisses|c.tStale == 0 {
		return
	}
	turboStats.batches.Add(c.tBatches)
	turboStats.batchedInstrs.Add(c.tInstrs)
	turboStats.decodeHits.Add(c.tHits)
	turboStats.decodeMisses.Add(c.tMisses)
	turboStats.decodeStale.Add(c.tStale)
	c.tBatches, c.tInstrs, c.tHits, c.tMisses, c.tStale = 0, 0, 0, 0, 0
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
)

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
		c.tHits++
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
		c.tStale++
	} else {
		c.tMisses++
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
	// q[head:] holds each entered member's next pending issue slot,
	// sorted by time with insertion order breaking ties — exactly the
	// order the slow path would have armed the same registrations,
	// which the exit re-arm replays so every surviving registration
	// keeps its relative sequence order against all others. It is a
	// ring in spirit: pops advance head, pushes append (lockstep
	// members always re-arm at or after the tail), and the slice
	// rewinds whenever it empties.
	q    []turboSlot
	head int
}

// turboSlot is one deferred issue arm.
type turboSlot struct {
	when sim.Time
	c    *Core
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
	g := &turboGroup{k: cores[0].k}
	for _, c := range cores {
		c.turbo = g
	}
}

// push inserts a deferred arm keeping q[head:] time-sorted; equal
// times keep insertion order (the slow path's arm order). The common
// case — the new arm is latest — is a plain append.
func (g *turboGroup) push(c *Core, when sim.Time) {
	n := len(g.q)
	if n == g.head || g.q[n-1].when <= when {
		g.q = append(g.q, turboSlot{when: when, c: c})
		return
	}
	i := n
	for i > g.head && g.q[i-1].when > when {
		i--
	}
	g.q = append(g.q, turboSlot{})
	copy(g.q[i+1:], g.q[i:])
	g.q[i] = turboSlot{when: when, c: c}
}

// popHead removes and returns the earliest deferred arm.
func (g *turboGroup) popHead() turboSlot {
	s := g.q[g.head]
	g.head++
	if g.head == len(g.q) {
		g.q = g.q[:0]
		g.head = 0
	}
	return s
}

// armPending hands every deferred arm back to the kernel, in order.
func (g *turboGroup) armPending() {
	for _, s := range g.q[g.head:] {
		s.c.scheduleIssue(s.when)
	}
	g.q = g.q[:0]
	g.head = 0
}

// absorb consumes the kernel's next event if it is a member's issue
// timer, returning that member — or nil when the event belongs to no
// member (the batch's horizon). Only one registration can be the queue
// head, so the group asks the kernel whose it is, recognises its own by
// type and membership, and absorbs that one timer (AbsorbNext re-checks
// head identity).
func (g *turboGroup) absorb() *Core {
	_, head, _ := g.k.NextForeign()
	f, ok := head.(*issueFirer)
	if !ok || f.c.turbo != g || !g.k.AbsorbNext(&f.c.issueTimer) {
		return nil
	}
	return f.c
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
// path at every boundary.
func (g *turboGroup) run(first *Core) {
	k := g.k
	now := k.Now()
	// rec is sampled once: recorders attach/detach only between runs,
	// never mid-batch. batchStart/binstrs feed the TurboBatch span.
	rec := k.Recorder()
	batchStart := now
	binstrs := int64(0)
	deadline, hasDeadline := k.Deadline()
	// The kernel's earliest registration is the batch horizon. It stays
	// put for the whole batch — nothing arms mid-batch, and absorbing
	// it (below) is the only thing that pops it — so it is recomputed
	// only after an absorb. Registrations beyond the deadline are left
	// for a later RunUntil.
	kt, _, kok := k.NextForeign()
	if kok && hasDeadline && kt > deadline {
		kok = false
	}
	cur := first
	slots := 0
	for {
		th := cur.pickReady(now)
		var next sim.Time = -1
		if th == nil {
			cur.IdleSlots++
			if t := cur.earliestReadyTime(); t >= 0 {
				next = cur.alignUp(t)
			}
			// next < 0: the member sleeps until something kicks it —
			// no arm, exactly the slow path.
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
				// The instruction may arm timers or wake threads as it
				// runs; hand the other members' arms back first so
				// everything it registers lands after them, preserving
				// the slow path's arm order (it armed those at their
				// own earlier slots).
				g.armPending()
				cur.run(th, in, class, words)
				cur.tInstrs++
				binstrs++
				if th.State == TReady {
					th.nextReady = max(th.nextReady, now+cur.clk.Cycles(PipelineDepth))
				}
				cur.scheduleIssue(now + cur.clk.Period())
				first.tBatches++
				if rec != nil {
					rec.EmitSpan(int64(batchStart), int64(now), trace.KindTurboBatch,
						int32(first.node), binstrs, int64(slots+1))
				}
				return
			}
			if ok {
				cur.run(th, in, class, words)
				cur.tInstrs++
				binstrs++
			}
			if th.State == TReady {
				th.nextReady = max(th.nextReady, now+cur.clk.Cycles(PipelineDepth))
			}
			if !ok || th.State == TTrapped {
				// Trap boundary: fall back to the event loop.
				g.armPending()
				cur.scheduleIssue(now + cur.clk.Period())
				first.tBatches++
				if rec != nil {
					rec.EmitSpan(int64(batchStart), int64(now), trace.KindTurboBatch,
						int32(first.node), binstrs, int64(slots+1))
				}
				return
			}
			next = now + cur.clk.Period()
		}
		slots++
		if slots >= turboBatchCap {
			if next >= 0 {
				g.push(cur, next)
			}
			break
		}
		// Fast path: cur's own next slot is strictly earliest — before
		// the kernel's registration (which wins ties, it predates the
		// batch) and before every deferred arm (which wins ties, they
		// were armed at earlier slots) — so it runs next with no queue
		// traffic at all.
		if next >= 0 && (!kok || next < kt) &&
			(g.head == len(g.q) || next < g.q[g.head].when) &&
			(!hasDeadline || next <= deadline) {
			k.StepTo(next)
			now = next
			continue
		}
		if next >= 0 {
			g.push(cur, next)
		}
		// Select the next slot in global order.
		if kok && (g.head == len(g.q) || kt <= g.q[g.head].when) {
			m := g.absorb()
			if m == nil {
				break // foreign event next: horizon reached
			}
			now = kt
			cur = m
			kt, _, kok = k.NextForeign()
			if kok && hasDeadline && kt > deadline {
				kok = false
			}
			continue
		}
		if g.head == len(g.q) {
			break // every member asleep; nothing left to arm
		}
		if hasDeadline && g.q[g.head].when > deadline {
			break
		}
		s := g.popHead()
		k.StepTo(s.when)
		now = s.when
		cur = s.c
	}
	g.armPending()
	first.tBatches++
	if rec != nil {
		rec.EmitSpan(int64(batchStart), int64(now), trace.KindTurboBatch,
			int32(first.node), binstrs, int64(slots))
	}
}
