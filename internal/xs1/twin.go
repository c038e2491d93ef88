package xs1

import (
	"bytes"
	"math"
	"slices"

	"swallow/internal/sim"
)

// Twins (turbo.go, statement 6): cores loaded with one program at one
// operating point run one computation, and a window is a function of the
// core's state, its first slot's time and limit — so of two cores in the
// same state, given windows from the same time up to the same limit, one
// computes and the other adopts the result. A slot asks for its window
// before it issues, so twins in step meet at one time.
//
// Candidates are the cores Load or LoadAt gave the same *Program. A
// candidate joins a class the first time refill finds it beside a window
// of a core loaded with its program, from its own time, and that core's
// state is its own in everything a window reads or writes (sameState);
// otherwise it is no twin until its next Load or Restore, so the compare
// is made at most once per load. Membership then holds by construction: a
// core's slots are a function of its own state, so two cores equal at one
// time, left alone, are equal at every time both have reached — whether a
// slot ran in a window, in the rotation, one by one or was adopted. What
// is not left alone leaves the class (leave): an entry from outside the
// core's issue step, a communication instruction it issues itself (what it
// reads or sends is its own, and so is GETID), a trap (its error is its
// own). A window that ends in a trap is not adopted: each twin computes
// its own.

// noTwin is Core.twin for a core that is in no class and may not join one
// before its next Load or Restore: it left one, or failed the compare.
const noTwin = -1

// adoption is a twin's share of a fan-out: c adopts the window at index
// of of the fan-out's record, which is from c's next slot.
type adoption struct {
	c  *Core
	of int
}

// take puts c's window from time at on the record, as fanout.add does,
// unless a window already there is one c is a twin of: c then goes on the
// group's adoption list instead and runs no slot until the join. Only the
// record is offered to helpers; twins cost the fan-out nothing.
func (g *turboGroup) take(c *Core, at, limit sim.Time) int64 {
	if c.twin >= 0 && c.prog != nil && at <= limit && c.quiet() {
		if i := g.twinOf(c, at); i >= 0 {
			g.twins = append(g.twins, adoption{c: c, of: i})
			return 0
		}
	}
	return g.fan.add(c, at, limit)
}

// twinOf returns the index of the window on the record c is a twin of, or
// -1. A class member's is the first window from at of its class. A
// candidate compares itself, once, with the first window from at of a core
// loaded with its program that is in a class or a candidate too: equal, it
// joins that core's class — opened for the two of them if there is none —
// and is its twin; unequal, it is no twin.
func (g *turboGroup) twinOf(c *Core, at sim.Time) int {
	for i := range g.fan.wins {
		w := &g.fan.wins[i]
		r := w.c
		if w.at != at || r.prog != c.prog || r.twin < 0 || c.twin > 0 && r.twin != c.twin {
			continue
		}
		if c.twin > 0 {
			return i
		}
		if !c.sameState(r) {
			c.twin = noTwin
			return -1
		}
		if r.twin == 0 {
			g.classes++
			r.twin = g.classes
		}
		c.twin = r.twin
		return i
	}
	return -1
}

// adoptAll hands every twin on the adoption list the result of its
// class's window, on the simulation goroutine, after the join. A window
// that ended in a trap is not handed on: its core has left the class, and
// each of its twins computes its own window — which traps too, and takes
// the twin out of the class in turn.
func (g *turboGroup) adoptAll() {
	f := &g.fan
	for _, a := range g.twins {
		w := &f.wins[a.of]
		if r := w.c; r.logTail != 0 && r.log[r.logTail-1].gap == slotTrapped {
			a.c.preexec(w.at, f.limit)
			continue
		}
		a.c.adopt(w)
	}
}

// sameState reports whether d's state is c's in everything a window reads
// or writes: the thread file, the rotation from rrOff, SRAM, the counters,
// the energy to the bit, the operating point, the compute streak, the
// debug and console output. Page
// generations and the predecode cache are bookkeeping and derived state,
// and are not compared.
func (c *Core) sameState(d *Core) bool {
	if c.cfg != d.cfg ||
		c.threads != d.threads || c.timerAlloc != d.timerAlloc ||
		c.InstrCount != d.InstrCount || c.ClassCounts != d.ClassCounts ||
		c.IdleSlots != d.IdleSlots || c.LastIssue != d.LastIssue || c.commMark != d.commMark ||
		c.accrualStart != d.accrualStart ||
		math.Float64bits(c.accruedJ) != math.Float64bits(d.accruedJ) ||
		math.Float64bits(c.dynamicJ) != math.Float64bits(d.dynamicJ) ||
		len(c.rr) != len(d.rr) {
		return false
	}
	for i, n := 0, len(c.rr); i < n; i++ {
		if c.rr[(c.rrOff+i)%n] != d.rr[(d.rrOff+i)%n] {
			return false
		}
	}
	return slices.Equal(c.DebugTrace, d.DebugTrace) && bytes.Equal(c.Console, d.Console) &&
		bytes.Equal(c.mem, d.mem)
}

// adopt takes over window w, which a twin in c's own state computed from
// c's next slot: everything preexec writes, copied — the thread file and
// rotation, the counters and energy bit for bit, the compute streak, the
// debug and console output onto c's own backing, the slot log, and the
// SRAM pages the window wrote. Those are the twin's pages stamped after
// the window began (w.gen), since every store stamps a fresh generation;
// each is stamped again through c's own touch, never given the twin's
// stamp, which is a clock of the twin's dirty tracking and could let c's
// next Restore pass over a page it wrote. The slots adopted count as
// pre-executed, and the instructions as batched and, where the twin ran
// them in the rotation, rotated; the decode counters count only lookups
// made.
func (c *Core) adopt(w *window) {
	r := w.c
	instrs := r.InstrCount - c.InstrCount
	c.threads = r.threads
	c.rr = append(c.rr[:0], r.rr...)
	c.rrOff = r.rrOff
	c.InstrCount, c.ClassCounts, c.IdleSlots, c.LastIssue = r.InstrCount, r.ClassCounts, r.IdleSlots, r.LastIssue
	c.dynamicJ, c.commMark = r.dynamicJ, r.commMark
	c.DebugTrace = append(c.DebugTrace, r.DebugTrace[len(c.DebugTrace):]...)
	c.Console = append(c.Console, r.Console[len(c.Console):]...)
	for p, gen := range r.pageGen {
		if gen > w.gen {
			off := p << pageShift
			copy(c.mem[off:off+pageSize], r.mem[off:])
			c.touch(uint32(off))
		}
	}
	c.logHead, c.logTail, c.logAt = r.logHead, r.logTail, r.logAt
	copy(c.log[:r.logTail], r.log[:r.logTail])
	slots := uint64(c.logged())
	c.t.PreexecSlots += slots
	c.t.AdoptedSlots += slots
	c.t.BatchedInstrs += instrs
	c.t.RotationSlots += r.t.RotationSlots - w.rot
}

// leave takes the core out of its twin class, if it is in one, until its
// next Load or Restore: something has happened to it alone.
func (c *Core) leave() {
	if c.twin > 0 {
		c.twin = noTwin
	}
}
