package xs1

import (
	"fmt"
	"strings"

	"swallow/internal/noc"
	"swallow/internal/sim"
)

// Counted stalls (turbo.go, mechanism 5): the issue slots of a core whose
// one live thread is blocked on a channel end, and provably stays blocked,
// are accounted for where they are decided instead of being armed and
// fired. This file holds the decision: what the blocked instruction is
// short of (Shortfall), whether a slot may be counted (countable: stalled
// and held) and the two places that ask — the channel-end wake that
// cannot satisfy its thread (countDoomedWake) and the communication
// instruction that has just blocked (countIdleProbe).

// Shortfall is what the communication instruction a thread is blocked in
// holds, and what it needs to complete: tokens in the receive buffer for
// the input instructions, free slots of the injection port — the route
// header's three included while the route is closed — for the output ones.
type Shortfall struct {
	Op         Opcode
	Have, Need int
}

// reads reports whether the instruction waits on the receive buffer.
func (s Shortfall) reads() bool {
	return s.Op == OpIN || s.Op == OpINT || s.Op == OpCHKCT
}

// String renders the shortfall as Machine.Run's deadlock report words it:
// "IN holds 1 of 4 tokens", "OUT has 1 of 4 slots".
func (s Shortfall) String() string {
	if s.reads() {
		return fmt.Sprintf("%s holds %d of %d tokens", strings.ToUpper(s.Op.Name()), s.Have, s.Need)
	}
	return fmt.Sprintf("%s has %d of %d slots", strings.ToUpper(s.Op.Name()), s.Have, s.Need)
}

// shortfall reads what instruction in, blocked on ce, holds and needs.
// Nothing is kept on the thread for it: a blocked thread's PC still names
// the instruction, and the channel end is as the fabric left it. ok is
// false for an instruction that does not block on a channel end.
func shortfall(in *Instr, ce *noc.ChanEnd) (s Shortfall, ok bool) {
	s.Op = in.Op
	switch in.Op {
	case OpIN:
		s.Have, s.Need = ce.InAvailable(), noc.WordTokens
	case OpINT, OpCHKCT:
		s.Have, s.Need = ce.InAvailable(), 1
	case OpOUT:
		s.Have, s.Need = ce.OutSpace(), ce.OutNeed(noc.WordTokens)
	case OpOUTT, OpOUTCT:
		s.Have, s.Need = ce.OutSpace(), ce.OutNeed(1)
	default:
		return s, false
	}
	return s, true
}

// Shortfall reports what thread id is short of, for a thread blocked on a
// channel end in an instruction SRAM still decodes. It is for diagnostics:
// it decodes from SRAM, whichever pipeline the core runs on.
func (c *Core) Shortfall(id int) (Shortfall, bool) {
	th := &c.threads[id]
	if th.State != TBlockedChan || th.blockedOn == nil {
		return Shortfall{}, false
	}
	w0, err := c.loadWord(th.PC * 4)
	if err != nil {
		return Shortfall{}, false
	}
	w1, _ := c.loadWord(th.PC*4 + 4)
	in, err := Decode(w0, w1)
	if err != nil {
		return Shortfall{}, false
	}
	return shortfall(&in, th.blockedOn)
}

// refusal says why an issue slot may not be counted; counted is no reason.
type refusal uint8

const (
	counted refusal = iota
	// refusedUnbounded: a recorder is attached, or the slot lies beyond
	// the deadline of the drain executing it — a boundary, a snapshot or
	// the recorder could see the kernel's counters ahead of the
	// event-by-event run.
	refusedUnbounded
	// refusedBusy: the core is not otherwise inert — slots logged, or
	// another thread that could issue or be woken from outside.
	refusedBusy
	// refusedUnread: the blocked instruction is not in the predecode
	// cache, or is not one that waits on a channel end.
	refusedUnread
	// refusedSatisfied: the instruction has what it needs; its retry
	// completes.
	refusedSatisfied
	// refusedReachable: something may reach the channel end by the slot.
	refusedReachable
)

func (r refusal) String() string {
	return [...]string{"counted", "unbounded", "busy core", "instruction not read back",
		"instruction satisfied", "channel end reachable"}[r]
}

// countable decides whether the idle probe of th's core at time probe —
// and every slot of the core before it — may be counted instead of fired:
// th is blocked on a channel end, and nothing the probe or a retry before
// it would find can differ from what is here now. Cores share no memory,
// so an otherwise inert core can be re-timed by this one channel end
// alone, and the horizon rule is local: the instruction th is blocked in
// still lacks what it needs (stalled), and neither the kernel, nor the
// core, nor the fabric lets that show or change up to and including probe
// (held). Anything else is refused, and the slot is armed and fired as
// ever: refusal is the event path.
func (c *Core) countable(th *Thread, probe sim.Time) refusal {
	s, r := c.stalled(th)
	if r != counted {
		return r
	}
	return c.held(th, probe, s.reads())
}

// stalled reads the instruction th is blocked in back from its PC through
// the predecode cache — th keeps no record of it, and needs none — and
// refuses unless it is still short of what it waits for.
func (c *Core) stalled(th *Thread) (Shortfall, refusal) {
	e := c.icached(th.PC)
	if e == nil {
		return Shortfall{}, refusedUnread
	}
	s, ok := shortfall(&e.in, th.blockedOn)
	if !ok {
		return s, refusedUnread
	}
	if s.Have >= s.Need {
		return s, refusedSatisfied
	}
	return s, counted
}

// held refuses unless th's stall can neither be seen early nor end by
// probe: no recorder is attached and probe is within the deadline of the
// drain executing it (outside a drain the deadline is the clock, so
// nothing passes), so no boundary, snapshot or recorder finds the
// kernel's counters ahead of the event-by-event run; the core is inert
// but for th — no slot logged, no other thread that could issue or be
// woken from outside (its issue timer is the callers' to answer for); and
// the fabric can neither change what th's instruction holds nor wake th
// up to and including probe (noc.ChanEnd.QuietUntil; reads says the
// instruction waits on the receive buffer).
func (c *Core) held(th *Thread, probe sim.Time, reads bool) refusal {
	if probe > c.k.Deadline() || c.k.Recorder() != nil {
		return refusedUnbounded
	}
	if c.logTail != 0 {
		return refusedBusy
	}
	for i := range c.threads {
		if t := &c.threads[i]; t != th {
			switch t.State {
			case TReady, TBlockedChan, TBlockedTime:
				return refusedBusy
			}
		}
	}
	if !th.blockedOn.QuietUntil(probe, reads) {
		return refusedReachable
	}
	return counted
}

// countDoomedWake is asked by the wake of the channel end th is blocked
// on, in place of kickThread. When the wake cannot satisfy th — a word
// wants four tokens and every token wakes — the kick would arm a retry at
// th's next slot, the retry would block again where it stood and arm the
// idle probe a period later, and the probe would find nothing and let the
// core sleep. If the probe is countable, both slots are accounted for
// here: two firings and the arms that go with them, the idle slot, and
// what the kick and the retry's pick leave behind — nextReady on the
// grid, the rotation past th, the compute streak ended. State, blockedOn
// and the wake callback end where they began. It reports false, having
// changed nothing the simulation can see, when the wake has to be taken
// the long way.
func (c *Core) countDoomedWake(th *Thread) bool {
	if c.exact {
		return false
	}
	s, r := c.stalled(th)
	if r != counted {
		return false
	}
	c.t.DoomedWakes++
	now := c.k.Now()
	ready := th.nextReady
	if ready < now {
		ready = c.alignUp(now)
	}
	retry := c.alignUp(max(now, ready))
	// The kick moves an issue slot armed for later to the retry (a new
	// registration), keeps one armed for the retry itself, and is no use
	// to one armed earlier, which fires first and is refused. Either way
	// the registration is a probe-to-be of a core with nothing to run; it
	// is disarmed, and its firing, if it was to be the retry's, counted.
	arms := 2
	if c.issueTimer.Armed() {
		switch when := c.issueTimer.When(); {
		case when < retry:
			return false
		case when == retry:
			arms = 1
		}
	}
	if c.held(th, retry+c.clk.Period(), s.reads()) != counted {
		return false
	}
	c.leave()
	c.issueTimer.Disarm()
	th.nextReady = ready
	for i, id := range c.rr {
		if id == th.ID {
			c.rrOff = (i + 1) % len(c.rr)
			break
		}
	}
	c.commMark = c.InstrCount
	c.IdleSlots++
	c.k.Count(arms, 2)
	c.t.CountedWakes++
	c.t.CountedSlots += 2
	return true
}

// countIdleProbe is asked by the group loop when th's communication
// instruction has just blocked and its core would be re-armed for probe,
// a period on: with nothing else runnable that slot is an idle probe, and
// if it is countable it is accounted for on the spot — one arm, one
// firing, one idle slot — and never armed. A wake already on its way
// makes the slot a retry's, not a probe's: it is armed, and the wake
// answers for it.
func (c *Core) countIdleProbe(th *Thread, probe sim.Time) bool {
	if th.blockedOn.WakeDue(probe) {
		return false
	}
	c.t.BlockProbes++
	if c.issueTimer.Armed() || c.countable(th, probe) != counted {
		return false
	}
	c.IdleSlots++
	c.k.Count(1, 1)
	c.t.CountedProbes++
	c.t.CountedSlots++
	return true
}
