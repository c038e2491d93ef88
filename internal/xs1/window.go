package xs1

import (
	"fmt"
	"math"

	"swallow/internal/energy"
	"swallow/internal/sim"
)

// A window is (core state, at, limit) → folded log: Core.preexec runs a
// core's own issue slots from time at up to limit alone, on a local clock,
// and logs when they fell in strided runs for the group loop (turbo.go) to
// replay. While every thread is ready and due at its turn the slots are
// the XS1's fixed rotation (Eq. 2), and rotate issues them with no
// scheduler scan and folds their counters in at its end.
// Instructions come from the predecoded instruction cache: each SRAM word
// executed as an instruction is decoded once into a dense per-page side
// table and revalidated with one generation compare against the page
// stamps snapshot.go maintains on every store. The cache is derived state
// — never snapshotted, never restored — and a stale stamp simply
// re-decodes, so self-modifying code, program loads and Restore all stay
// exact.

const (
	// pageWordShift/pageWords mirror snapshot.go's 4 KiB pages in
	// 32-bit instruction words: one predecode table page per SRAM page,
	// validated by the same generation stamp.
	pageWordShift = pageShift - 2
	pageWords     = 1 << pageWordShift

	// preexecRuns is the capacity of a core's slot log, in runs. A core
	// whose slots repeat one block logs its whole window as one run and a
	// tail; a core whose idle probes skip ahead by no pattern logs one run
	// per skip, and its window ends when the log is full.
	preexecRuns = 64

	// slotTrapped is the logged next time of a pre-executed slot whose
	// thread trapped: the replay ends the batch there, as the trap
	// itself would have.
	slotTrapped sim.Time = -2
)

// preRun is one strided run of pre-executed issue slots: a block of n
// slots a period apart, then gap from the block's last slot to the core's
// next, reps times over. The first block may be short: left counts the
// slots of it yet to replay, and falls as they are. A core with an
// instruction in every slot logs blocks of one slot and a period's gap —
// the period-only run — and one whose idle probes skip ahead logs the
// slots up to the probe and the skip. A negative gap ends the log, and
// its one block: -1 when the core sleeps after the last slot, slotTrapped
// when that slot trapped. The time of the next slot to replay is the
// core's (Core.logAt); a run begins where the one before it ends.
type preRun struct {
	gap           sim.Time
	left, n, reps int
}

// ientry is one predecoded instruction. stamp pins the page generation
// the entry was decoded under, plus one, so that zero is an entry never
// decoded; class and words cache the per-issue derivations (energy
// class, encoded size) the slow path recomputes.
type ientry struct {
	stamp uint64
	in    Instr
	class uint8
	words uint8
}

// ipage is the predecode table for one SRAM page, allocated the first
// time an instruction from that page is fetched through turbo. Until then
// the core's table for the page is noPage, whose entries are all
// undecoded, so a lookup need not ask whether a table is there.
type ipage [pageWords]ientry

// noPage is every core's predecode table for a page it has not fetched
// from. It is never written.
var noPage ipage

// fetch resolves th's instruction through the predecode cache: the live
// entry on a hit, else the one fetchMiss decodes it into, or nil when the
// fetch trapped. hit says the cache served it.
func (c *Core) fetch(th *Thread) (e *ientry, hit bool) {
	if e := c.icached(th.PC); e != nil {
		c.t.DecodeHits++
		return e, true
	}
	return c.fetchMiss(th), false
}

// icached is fetch's lookup without the fetch: the live entry for the
// instruction at word address pc, or nil, and nothing counted. Reading
// back the instruction a thread is blocked in goes through here.
func (c *Core) icached(pc uint32) *ientry {
	page := pc >> pageWordShift
	if page >= numPages {
		return nil
	}
	e := &c.icache[page][pc&(pageWords-1)]
	if e.stamp == c.pageGen[page]+1 {
		return e
	}
	return nil
}

// fetchMiss decodes th's instruction through the uncached path
// (fetchSlow) and populates its cache entry when one page stamp can guard
// the whole encoding; an instruction beyond SRAM, whose byte address wraps
// uint32 in the slow path's load, or a two-word one straddling a page
// boundary is left in the core's scratch entry — rare enough to always
// decode. Faults trap with fetchSlow's diagnostics and are never cached.
func (c *Core) fetchMiss(th *Thread) *ientry {
	pc := th.PC
	page := pc >> pageWordShift
	var e *ientry
	if page < numPages {
		if c.icache[page] == &noPage {
			c.icache[page] = new(ipage)
		}
		if e = &c.icache[page][pc&(pageWords-1)]; e.stamp != 0 {
			c.t.DecodeStale++
		} else {
			c.t.DecodeMisses++
		}
	}
	s := c.fetchSlow(th)
	if s == nil || e == nil || s.words == 2 && pc&(pageWords-1) == pageWords-1 {
		return s
	}
	*e = *s
	e.stamp = c.pageGen[page] + 1
	return e
}

// quiet reports whether nothing outside the core can re-time it: it has
// no thread blocked on a channel end or on the reference clock — the only states a foreign event wakes (kickThread).
// A thread blocked in TJOIN is woken by this core's own TEND, which is
// a communication instruction and so never pre-executed.
func (c *Core) quiet() bool {
	for i := range c.threads {
		if s := c.threads[i].State; s == TBlockedChan || s == TBlockedTime {
			return false
		}
	}
	return true
}

// rotation is what one call of rotate ran: instrs instructions and
// probes idle probes, the last of them at last; next is the time of the
// slot after it, and trapped says the last instruction trapped.
type rotation struct {
	instrs, probes int
	last, next     sim.Time
	trapped        bool
}

// rotate issues the core's slots from time at, up to limit and at most
// most of them, for as long as they are the XS1's fixed rotation: every
// thread in rr ready and the j-th in issue order due by at + j·period.
// Each thread then issues at its turn and is due again four periods
// later, so the pick is rr's next entry and nothing needs scanning. A lap
// is the threads' slots a period apart and, with fewer than four of them,
// the idle probe after them, which finds none due — the first is due four
// periods after its slot, which is where the next lap begins (on the
// grid: with fewer than four threads at must lie on it). It stops before
// a slot whose instruction is not a cached compute instruction — a miss,
// a communication instruction, or a divide, whose stall breaks the
// rotation — and after a trap. Only the class counts and the energy,
// whose float sum must keep slot order, are charged per slot; the rest is
// folded in at the end. What it leaves — rrOff, every nextReady, the
// counters — is what the slot loop would have left.
func (c *Core) rotate(at, limit sim.Time, most int) (r rotation) {
	n := len(c.rr)
	period := c.clk.Period()
	if n == 0 || limit < at || n < PipelineDepth && at%period != 0 {
		return r
	}
	off := c.rrOff
	// ths holds the threads in issue order from off.
	var ths [MaxThreads]*Thread
	j := off
	for i := 0; i < n; i++ {
		th := &c.threads[c.rr[j]]
		if th.State != TReady || th.nextReady > at+sim.Time(i)*period {
			return r
		}
		ths[i] = th
		if j++; j == n {
			j = 0
		}
	}
	// most falls to the slots up to limit: d periods on from at, the
	// d+1 slots a period apart of four threads or more, or laps of
	// fewer threads' slots and the probe, four periods each.
	d := int((limit - at) / period)
	gap := sim.Time(0) // from a probe to the next lap
	wrap := n          // positions in a lap, the probe's included
	if n >= PipelineDepth {
		most = min(most, d+1)
	} else {
		most = min(most, d/PipelineDepth*(n+1)+min(d%PipelineDepth, n)+1)
		gap, wrap = sim.Time(PipelineDepth-n)*period, n+1
	}
	t, i, instrs := at, 0, 0
	for k := 0; k < most; k++ {
		if i == n {
			r.probes++
			r.last, t, i = t, t+gap, 0
			continue
		}
		th := ths[i]
		e := c.icached(th.PC)
		if e == nil || e.class == uint8(energy.ClassComm) || e.class == uint8(energy.ClassDiv) {
			break
		}
		class := e.class
		issued := c.run(th, &e.in, uint32(e.words), t)
		r.last = t
		if th.State != TReady {
			r.instrs = instrs
			c.fold(at, off, &r)
			if issued {
				c.chargeInstr(th, energy.InstrClass(class), t)
			}
			c.t.DecodeHits++
			c.t.RotationSlots++
			c.rrOff = (off + instrs + 1) % n
			r.instrs++
			r.trapped = true
			return r
		}
		c.ClassCounts[class]++
		c.dynamicJ += c.instrJ[class]
		instrs++
		t += period
		if i++; i == wrap {
			i = 0
		}
	}
	r.instrs, r.next = instrs, t
	c.fold(at, off, &r)
	c.rrOff = (off + instrs) % n
	return r
}

// fold charges the rotation r, begun at time at from offset off of rr,
// with what the slot loop charges but the class counts and the energy:
// the instruction and idle slot counts, the last issue time and each
// thread's next issue time, from its last slot.
func (c *Core) fold(at sim.Time, off int, r *rotation) {
	k := r.instrs
	if k == 0 {
		return
	}
	n := len(c.rr)
	period := c.clk.Period()
	stride := sim.Time(max(n, PipelineDepth)) * period
	c.InstrCount += uint64(k)
	c.IdleSlots += uint64(r.probes)
	c.LastIssue = at + sim.Time((k-1)/n)*stride + sim.Time((k-1)%n)*period
	c.t.DecodeHits += uint64(k)
	c.t.RotationSlots += uint64(k + r.probes)
	j := off
	for i := 0; i < min(k, n); i++ {
		th := &c.threads[c.rr[j]]
		turns := (k-1-i)/n + 1
		th.Instrs += uint64(turns)
		th.nextReady = at + sim.Time(turns-1)*stride + sim.Time(i+PipelineDepth)*period
		if j++; j == n {
			j = 0
		}
	}
}

// preexec runs the core's own next issue slots alone on a local clock,
// starting with the slot at time at, and logs them in runs for the group
// loop to replay. It is the group loop's slot step — pickReady, fetch,
// issue, the idle probe, or the rotation where it holds — with the kernel
// left out, and it stops at the first slot later than limit (the
// caller's bound: before every pending registration, within the
// deadline), before the first communication instruction (the pick is
// undone, so the rotation is as the group loop expects to find it), after
// a trap, when the core goes to sleep, or when the log is full. It reads
// and writes nothing but its own core — no kernel, no group, no other
// core — which is what lets windows of different cores run on different
// host threads (turboGroup.refill). The core must be quiet and its log
// empty: refill gives windows only to such cores, and a window begun over
// slots not yet replayed would lose them, so that panics.
func (c *Core) preexec(at, limit sim.Time) {
	if c.logTail != 0 {
		panic(fmt.Sprintf("xs1: core %v given a window at %v with %d pre-executed slots not replayed",
			c.node, at, c.logged()))
	}
	period := c.clk.Period()
	// n counts the slots of the block being logged so far, a period apart.
	// Nothing else is carried from slot to slot: every value live across
	// the call to run is spilled around it.
	c.logAt = at
	n := 0
	for at <= limit {
		if r := c.rotateLogged(at, limit); r.instrs > 0 {
			c.t.BatchedInstrs += uint64(r.instrs)
			if m := len(c.rr); r.probes > 0 && m < PipelineDepth-1 {
				// Each probe ends a block: the lap skips ahead past the
				// grid.
				gap := sim.Time(PipelineDepth-m) * period
				c.logBlock(n+m+1, gap)
				if r.probes > 1 {
					c.logBlock(m+1, gap)
					c.log[c.logTail-1].reps += r.probes - 2
				}
				n = r.instrs - r.probes*m
			} else {
				n += r.instrs + r.probes
			}
			if r.trapped {
				c.logBlock(n, slotTrapped)
				n = 0
				break
			}
			if at = r.next; at > limit {
				break
			}
		}
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
				// The group loop picks and fetches this slot again. The
				// streak is over: until the instruction has issued, no
				// refill on another member's behalf need ask this core
				// again, to be turned away at the same pick.
				c.rrOff = off
				if hit {
					c.t.DecodeHits--
				}
				c.commMark = c.InstrCount
				break
			}
			if e != nil {
				c.issue(th, e, at)
				c.t.BatchedInstrs++
			}
			next = at + period
			if e == nil || th.State == TTrapped {
				next = slotTrapped
			}
		}
		n++
		if next != at+period {
			// The slot leaves the grid, and its block ends with it.
			gap := next
			if next >= 0 {
				gap -= at
			}
			c.logBlock(n, gap)
			n = 0
			if next < 0 || c.logTail == len(c.log) {
				break
			}
		}
		at = next
	}
	if n > 0 {
		// limit or a communication instruction cut the window short of a
		// block's end: n slots, each a period before the core's next.
		c.log[c.logTail] = preRun{gap: period, left: 1, n: 1, reps: n}
		c.logTail++
	}
	c.t.PreexecSlots += uint64(c.logged())
}

// rotateLogged is preexec's rotate: from at up to limit, while the log has
// room for the two runs the rotation may open and the tail after them.
func (c *Core) rotateLogged(at, limit sim.Time) rotation {
	if c.logTail+3 > len(c.log) {
		return rotation{}
	}
	return c.rotate(at, limit, math.MaxInt)
}

// logBlock logs a block of n slots and the gap after it: one more of the
// run before it, if it is that run's block again — or the whole of a block
// that run opened with the end of — else the first of a new run.
func (c *Core) logBlock(n int, gap sim.Time) {
	if c.logTail > 0 {
		if p := &c.log[c.logTail-1]; p.gap == gap && (p.n == n || p.reps == 1 && p.n < n) {
			p.n = n
			p.reps++
			return
		}
	}
	c.log[c.logTail] = preRun{gap: gap, left: n, n: n, reps: 1}
	c.logTail++
}

// logged counts the pre-executed slots the group loop has yet to replay.
func (c *Core) logged() int {
	n := 0
	for _, e := range c.log[c.logHead:c.logTail] {
		n += e.left + (e.reps-1)*e.n
	}
	return n
}

// wholeBlocks counts the blocks of the head run a round step may retire
// at once, the core ending at the slot of a block it began at: all of them
// from a block's first slot, one fewer from inside one, and never a block
// that ends the log asleep or trapped. The log must not be empty.
func (c *Core) wholeBlocks() int {
	e := &c.log[c.logHead]
	if e.left == e.n && e.gap >= 0 {
		return e.reps
	}
	return e.reps - 1
}

// pop replays the next slot: it moves the log past it and reports the
// time of the core's slot after it — a period later inside a block, the
// gap later after its last slot, the run's negative gap itself when that
// ends the log.
func (c *Core) pop() sim.Time {
	e := &c.log[c.logHead]
	if e.left > 1 {
		e.left--
		c.logAt += c.clk.Period()
		return c.logAt
	}
	if e.reps > 1 {
		e.reps--
		e.left = e.n
	} else if c.logHead++; c.logHead == c.logTail {
		c.logHead, c.logTail = 0, 0
	}
	if e.gap < 0 {
		return e.gap
	}
	c.logAt += e.gap
	return c.logAt
}

// retire moves the log past r whole blocks of its head run (no more than
// wholeBlocks), span later, and reports whether that emptied the log.
func (c *Core) retire(r int, span sim.Time) bool {
	c.logAt += span
	e := &c.log[c.logHead]
	if e.reps -= r; e.reps > 0 {
		return false
	}
	if c.logHead++; c.logHead < c.logTail {
		return false
	}
	c.logHead, c.logTail = 0, 0
	return true
}
