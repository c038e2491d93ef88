package sim

import "fmt"

// Timer is a reusable scheduled callback: a component allocates one at
// construction time and re-arms it forever. The callback is bound once,
// so the steady-state arm/fire/re-arm cycle allocates nothing — no
// per-event closures, no garbage — which is what the instruction-issue
// and network hot paths run on.
//
// A Timer holds at most one pending registration. ArmAt on an armed
// timer moves the registration (the old one is abandoned in place and
// skipped when the queue reaches it). Arming at the already-armed time
// keeps the existing registration and with it the timer's FIFO position
// among equal-time events.
type Timer struct {
	k  *Kernel
	ev event
}

// Waker is a preallocated callback target. Components that would
// otherwise build one closure per timer at construction time (the
// ROADMAP's cold-path per-block closures) instead embed a small struct
// implementing Fire and hand its address to Timer.Init: the interface
// value points into the component itself, so binding the callback
// allocates nothing beyond the component.
type Waker interface{ Fire() }

// NewTimer builds a timer on the kernel with fn as its permanent
// callback. The timer starts disarmed.
func (k *Kernel) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer requires a callback")
	}
	t := &Timer{k: k}
	t.ev.fn = fn
	return t
}

// Init prepares an embedded (value) Timer in place with w as its
// permanent callback target: the allocation-free counterpart of
// NewTimer for components that hold their timers by value.
// Initialising an already-initialised timer is a programming error.
func (t *Timer) Init(k *Kernel, w Waker) {
	if w == nil {
		panic("sim: Timer.Init requires a waker")
	}
	if t.k != nil {
		panic("sim: Timer.Init on an initialised timer")
	}
	t.k = k
	t.ev.w = w
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.ev.armed }

// When reports the pending firing time; meaningful only while Armed.
func (t *Timer) When() Time { return t.ev.when }

// ArmAt schedules (or reschedules) the callback for absolute time at.
// Arming in the past panics: the kernel cannot rewind the clock.
func (t *Timer) ArmAt(at Time) {
	k := t.k
	if at < k.now {
		panic(fmt.Sprintf("sim: timer armed at %v before now %v", at, k.now))
	}
	if t.ev.armed {
		if t.ev.when == at {
			return
		}
		k.cancel(&t.ev)
	}
	t.ev.armed = true
	t.ev.when = at
	t.ev.seq = k.seq
	k.seq++
	k.insert(slot{when: at, seq: t.ev.seq, ev: &t.ev})
}

// ArmAfter schedules the callback d picoseconds from now.
func (t *Timer) ArmAfter(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %d", d))
	}
	t.ArmAt(t.k.now + d)
}

// ArmEarliest arms at `at`, or keeps the existing registration if it
// already fires no later: the "wake me by then" idiom of components
// that coalesce multiple progress notifications into one firing.
func (t *Timer) ArmEarliest(at Time) {
	if t.ev.armed && t.ev.when <= at {
		return
	}
	t.ArmAt(at)
}

// Disarm cancels the pending firing, reporting whether one was pending.
// The timer remains usable; firing also disarms (re-arm from the
// callback to build periodic ticks).
func (t *Timer) Disarm() bool { return t.k.cancel(&t.ev) }
