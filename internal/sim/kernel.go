package sim

import (
	"fmt"
	"math"

	"swallow/internal/trace"
)

// The kernel's pending-event store is a two-tier ladder queue tuned for
// the simulator's traffic profile: almost every event is scheduled a few
// core cycles ahead (instruction issue, link symbol times, switch
// latencies), with a thin tail of far-future work (power-trace ticks,
// TWAIT deadlines).
//
//   - The near tier is a ring of buckets, each covering one quantum of
//     2^quantumShift ps (~one 500 MHz core cycle). Insertion is an O(1)
//     append; a bucket is sorted once, when it becomes current.
//   - The far tier is a conventional binary min-heap holding everything
//     beyond the ring's horizon. When the near tier drains, the wheel is
//     rebased onto the heap's minimum and the horizon's worth of events
//     migrates back in.
//
// Ordering is the exact (time, seq) contract of the original heap
// kernel: seq increases with every registration, so equal-time events
// fire in registration order, and the two tiers merge by the same key.
// Cancellation is lazy: a registration is invalidated in O(1) and its
// slot skipped when encountered, which is what lets a Timer re-arm
// without touching the queue structure it was filed in.

const (
	// quantumShift sets the bucket width: 2048 ps, about one cycle at
	// the 500 MHz operating point.
	quantumShift = 11
	quantum      = Time(1) << quantumShift
	numBuckets   = 256
	bucketMask   = numBuckets - 1
	// wheelSpan is the near-tier horizon (~524 ns).
	wheelSpan = quantum * numBuckets
	// forever is Run's deadline: no bound on simulated time.
	forever Time = math.MaxInt64
)

// slot is one registration in the queue. ev's (armed, seq) pair decides
// whether the slot is still live when it surfaces.
type slot struct {
	when Time
	seq  uint64
	ev   *event
}

// before reports whether a fires before b under the (time, seq) order.
func (a slot) before(b slot) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// live reports whether the slot is the current registration of its event.
func (s slot) live() bool { return s.ev.armed && s.ev.seq == s.seq }

// event is a Timer's scheduled callback. Events with equal timestamps
// fire in the order they were scheduled (FIFO), which keeps the kernel
// deterministic.
type event struct {
	when Time
	seq  uint64
	// Exactly one of fn and w carries the callback: fn for NewTimer
	// timers, w for Waker timers whose target is a preallocated struct
	// rather than a closure.
	fn func()
	w  Waker
	// armed marks a pending registration; seq identifies it among any
	// stale slots left behind by cancels and re-arms.
	armed bool
	// far records which tier holds the current registration.
	far bool
}

// fire invokes the event's callback.
func (e *event) fire() {
	if e.w != nil {
		e.w.Fire()
		return
	}
	e.fn()
}

// Kernel is a single-threaded discrete-event scheduler.
//
// The zero value is not ready to use; call NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	fired uint64

	// cur is the current bucket, sorted, drained from curHead.
	cur     []slot
	curHead int
	// wheel holds the near-future buckets, unsorted. cur stands in for
	// the bucket at wheelPos — it is that bucket's backing, and goes back
	// to that position when it has drained, so how much a position can
	// hold never depends on which buckets were current before it —
	// and wheelTime is the start of its quantum.
	wheel     [numBuckets][]slot
	wheelPos  int
	wheelTime Time
	// overflow is the far tier, a min-heap by (when, seq).
	overflow []slot

	// liveNear/liveFar count armed registrations per tier.
	liveNear int
	liveFar  int

	// deadline is the bound of the drain executing events, exposed to
	// batched executors (Deadline) so a fast path never advances the
	// clock past the point the driver will observe. Outside a drain it
	// is the clock itself: nothing may run ahead of it.
	deadline Time

	// rec is the attached flight recorder, nil when tracing is off.
	// Snapshot restore leaves it alone: attachment follows the checkout
	// lifecycle (core.Checkout), not the event state.
	rec *trace.Recorder
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Fired reports the number of events executed so far. The synthetic
// firings of StepTo, StepN and Count count, one per slot, so a batched
// run reports the same total as the equivalent event-by-event run.
func (k *Kernel) Fired() uint64 { return k.fired }

// Seq reports the number of registrations consumed so far (the next
// registration's sequence number). Like Fired it is held in lockstep
// between batched and event-by-event execution: StepTo consumes one
// seq per synthetic slot, StepN and Count one for each of the slots
// they cover, exactly as the arms they replace would have. Only tests
// read it: the "Turbo ≡ step-by-step" differentials in xs1, core, noc
// and workload (TestTurboRandomizedDifferential among them) hold the
// fast path's kernel accounting to it, which is why it stays exported.
func (k *Kernel) Seq() uint64 { return k.seq }

// SetRecorder attaches (or, with nil, detaches) the flight recorder.
// Attachment is owned by the machine checkout lifecycle; snapshot
// restore never touches it.
func (k *Kernel) SetRecorder(r *trace.Recorder) { k.rec = r }

// Recorder returns the attached flight recorder, nil when tracing is
// off. Components emit through this: the nil path is one load and one
// branch, so untraced hot loops stay allocation-free.
func (k *Kernel) Recorder() *trace.Recorder { return k.rec }

// Pending reports the number of events waiting in the queue.
func (k *Kernel) Pending() int { return k.liveNear + k.liveFar }

// cancel removes a pending registration. Cancelling an event that
// already fired (or was already cancelled) is a no-op and reports false.
func (k *Kernel) cancel(ev *event) bool {
	if ev == nil || !ev.armed {
		return false
	}
	ev.armed = false
	if ev.far {
		k.liveFar--
	} else {
		k.liveNear--
	}
	return true
}

// insert files a registration into the tier its timestamp selects.
func (k *Kernel) insert(s slot) {
	off := (s.when - k.wheelTime) >> quantumShift
	switch {
	case off <= 0:
		// Current quantum (or, after a RunUntil jump left wheelTime
		// ahead of now, earlier): sorted insert into the live bucket.
		k.insertCur(s)
		k.liveNear++
		s.ev.far = false
	case off < numBuckets:
		i := (k.wheelPos + int(off)) & bucketMask
		k.wheel[i] = append(k.wheel[i], s)
		k.liveNear++
		s.ev.far = false
	default:
		k.heapPush(s)
		k.liveFar++
		s.ev.far = true
	}
}

// insertCur places s into the sorted current bucket. New registrations
// are never earlier than anything already fired, so the insertion point
// is at or after curHead.
func (k *Kernel) insertCur(s slot) {
	lo, hi := k.curHead, len(k.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.before(k.cur[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k.cur = append(k.cur, slot{})
	copy(k.cur[lo+1:], k.cur[lo:])
	k.cur[lo] = s
}

// advanceNear positions curHead on the earliest live near-tier slot,
// stepping and sorting wheel buckets as needed. It reports false when
// the near tier holds no live registrations.
func (k *Kernel) advanceNear() bool {
	if k.liveNear == 0 {
		return false
	}
	for {
		for k.curHead < len(k.cur) {
			if k.cur[k.curHead].live() {
				return true
			}
			k.curHead++ // stale registration
		}
		// Bucket drained: leave its backing at its own position and pull
		// in the next non-empty one.
		clear(k.cur)
		k.wheel[k.wheelPos] = k.cur[:0]
		k.curHead = 0
		for {
			k.wheelPos = (k.wheelPos + 1) & bucketMask
			k.wheelTime += quantum
			if len(k.wheel[k.wheelPos]) > 0 {
				break
			}
		}
		k.cur, k.wheel[k.wheelPos] = k.wheel[k.wheelPos], nil
		sortSlots(k.cur)
	}
}

// pruneOverflow discards stale registrations from the heap top.
func (k *Kernel) pruneOverflow() {
	for len(k.overflow) > 0 && !k.overflow[0].live() {
		k.heapPop()
	}
}

// rebase jumps the empty wheel onto the earliest far event and migrates
// everything within the new horizon back into the near tier.
func (k *Kernel) rebase() {
	clear(k.cur)
	k.cur = k.cur[:0]
	k.curHead = 0
	k.wheelTime = k.overflow[0].when &^ (quantum - 1)
	for len(k.overflow) > 0 && k.overflow[0].when < k.wheelTime+wheelSpan {
		s := k.heapPop()
		if !s.live() {
			continue
		}
		k.liveFar--
		k.insert(s)
	}
}

// head positions both tiers on their earliest live registration and
// returns the queue head under the (time, seq) merge without consuming
// it; far says which tier holds it. Every head primitive — stepDue,
// NextForeign, AbsorbNext, the pending-event check of StepTo and StepN
// — shares this walk.
// A pop leaves curHead on the next slot of the current bucket, so the
// walk that follows one usually finds the head in view — a live slot
// there, a live or absent heap top — and answers without stepping the
// wheel.
func (k *Kernel) head() (s slot, far, ok bool) {
	for {
		near := k.curHead < len(k.cur) && k.cur[k.curHead].live() || k.advanceNear()
		if len(k.overflow) > 0 && !k.overflow[0].live() {
			k.pruneOverflow()
		}
		hasFar := len(k.overflow) > 0
		if near {
			s = k.cur[k.curHead]
			if hasFar && k.overflow[0].before(s) {
				return k.overflow[0], true, true
			}
			return s, false, true
		}
		if !hasFar {
			return slot{}, false, false
		}
		k.rebase()
	}
}

// pop consumes the registration head just returned from the given tier.
func (k *Kernel) pop(s slot, far bool) {
	if far {
		k.heapPop()
		k.liveFar--
	} else {
		// The slot stays behind curHead until advanceNear clears the
		// drained bucket wholesale.
		k.curHead++
		k.liveNear--
	}
	s.ev.armed = false
}

// fireSlot advances the clock to s and runs its callback.
func (k *Kernel) fireSlot(s slot) {
	k.now = s.when
	k.fired++
	if r := k.rec; r != nil {
		waker := int64(0)
		if s.ev.w != nil {
			waker = 1
		}
		r.Emit(int64(s.when), trace.KindKernelEvent, trace.SrcMachine, int64(s.seq), waker)
	}
	s.ev.fire()
}

// stepDue pops and fires the earliest event if it is due at or before
// deadline, in one pass over the queue heads. It reports false when
// nothing is due. An empty near tier is not rebased onto a far event
// beyond the deadline: the wheel stays where the clock is.
func (k *Kernel) stepDue(deadline Time) bool {
	if k.liveNear == 0 {
		k.pruneOverflow()
		if len(k.overflow) == 0 || k.overflow[0].when > deadline {
			return false
		}
	}
	s, far, ok := k.head()
	if !ok || s.when > deadline {
		return false
	}
	k.pop(s, far)
	k.fireSlot(s)
	return true
}

// NextForeign reports the earliest pending registration without
// consuming it: its timestamp — the horizon up to which a batched
// executor may run without the kernel needing to intervene — and its
// Waker (nil for closure events), by which the executor recognises a
// registration it may absorb. "Foreign" is the caller's perspective:
// its own registration was consumed by the pop that fired it, so
// everything still queued belongs to someone else.
func (k *Kernel) NextForeign() (Time, Waker, bool) {
	s, _, ok := k.head()
	if !ok {
		return 0, nil, false
	}
	return s.when, s.ev.w, true
}

// Deadline reports the bound of the drain currently executing events:
// RunUntil's deadline, or no bound at all under Run. Batched executors
// must not advance the clock past it: RunUntil's contract is that the
// clock lands exactly on the deadline, and every event due at it still
// fires. Outside a drain — after NewKernel, Restore or a drain's return
// — it is Now, so nothing can run ahead of the clock there.
func (k *Kernel) Deadline() Time { return k.deadline }

// AbsorbNext consumes the earliest pending registration if it belongs
// to timer t, advancing the clock to its timestamp and counting the
// firing — but without running the callback: the caller takes
// responsibility for the slot. It reports false (and pops nothing)
// when the queue is empty or the earliest registration is someone
// else's. This is the batched fast path's sibling-merge primitive: a
// group of cores whose issue timers interleave in lockstep absorbs
// each member's firing into one batch instead of bouncing through the
// event loop four times per cycle, with (now, seq, fired) advancing
// exactly as the individual firings would have.
func (k *Kernel) AbsorbNext(t *Timer) bool {
	if !t.ev.armed {
		return false
	}
	s, far, ok := k.head()
	if !ok || s.ev != &t.ev {
		return false
	}
	k.pop(s, far)
	k.now = s.when
	k.fired++
	return true
}

// StepTo advances the clock to t from inside a firing event, consuming
// one sequence number and one firing — the exact bookkeeping of the
// arm/fire pair it replaces. It is the batched fast path's primitive:
// a core that would re-arm its issue timer at t and execute the next
// instruction when it fires instead calls StepTo(t) and executes
// inline, leaving now, seq and fired bit-identical to the
// event-by-event schedule at every kernel-visible boundary.
//
// Stepping past (or onto) a pending event is a contract violation —
// the pending registration was armed earlier, holds a lower sequence
// number, and must fire first — as is stepping past the active
// deadline (Deadline) or backwards; all three panic.
func (k *Kernel) StepTo(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: StepTo(%v) behind now %v", t, k.now))
	}
	if k.liveNear+k.liveFar > 0 {
		if s, _, ok := k.head(); ok && s.when <= t {
			panic(fmt.Sprintf("sim: StepTo(%v) would pass pending event at %v", t, s.when))
		}
	}
	if t > k.deadline {
		panic(fmt.Sprintf("sim: StepTo(%v) beyond deadline %v", t, k.deadline))
	}
	k.seq++
	k.fired++
	k.now = t
}

// StepN is n StepTo calls in one: n arm/fire pairs at times that never
// decrease, the last of them at t. It consumes n sequence numbers and n
// firings and leaves the clock at t. Every intermediate time lies
// between now and t, so StepTo's three checks made once, against t,
// cover all n steps — it is one StepTo(t) and n-1 more counts; keeping
// the intermediate times monotone is the caller's to guarantee. n == 0
// takes no step at all — the clock stays where it is, whatever t says —
// and a negative n panics.
func (k *Kernel) StepN(t Time, n int) {
	if n <= 0 {
		if n < 0 {
			panic(fmt.Sprintf("sim: StepN(%v, %d) with a negative count", t, n))
		}
		return
	}
	k.StepTo(t)
	k.seq += uint64(n - 1)
	k.fired += uint64(n - 1)
}

// Count accounts for registrations and firings that will not be made:
// arms sequence numbers and firings firings, the clock left where it is.
// It stands for issue slots whose firing would do nothing anyone else
// could tell — a core that provably finds every thread still blocked —
// and which are therefore ordered against nobody's: where StepN refuses
// to pass a pending event, because the slots it covers run in the clock's
// order, Count has no order to keep, and may be called with events
// pending before the times it stands for. The clock stays because those
// times are not the caller's to move it to: real events fall between
// them. A slot is an arm and a firing; firings exceeds arms by the
// registrations the caller armed for real and has disarmed, whose
// sequence numbers are spent and whose firing is counted here. What the
// caller owes is that every counted firing lies within the active
// deadline (Deadline), so that no boundary sees Seq or Fired (which already
// promise to include synthetic firings) ahead of the event-by-event run.
// A negative count panics, as in StepN.
func (k *Kernel) Count(arms, firings int) {
	if arms < 0 || firings < 0 {
		panic(fmt.Sprintf("sim: Count(%d, %d) with a negative count", arms, firings))
	}
	k.seq += uint64(arms)
	k.fired += uint64(firings)
}

// Run executes events until the queue is empty: RunUntil's drain with
// no bound, leaving the clock on the last event fired. On a machine with
// turbo cores one event can be a whole batch of up to 2^20 issue slots
// (about 1 ms of host time untraced, 37 ms traced). Product code runs
// RunUntil and RunFor; Run is left for a queue known to empty.
func (k *Kernel) Run() {
	k.drain(forever)
	k.deadline = k.now
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline (even if no event fired exactly there). Events
// scheduled beyond the deadline stay queued. While the loop runs the
// deadline is published through Deadline, bounding batched executors.
func (k *Kernel) RunUntil(deadline Time) {
	k.drain(deadline)
	if k.now < deadline {
		k.now = deadline
	}
	k.deadline = k.now
}

// drain fires every event due at or before deadline, publishing the
// bound through Deadline while it runs.
func (k *Kernel) drain(deadline Time) {
	k.deadline = deadline
	for k.stepDue(deadline) {
	}
}

// RunFor advances the clock by d, executing everything due in the window.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

// sortSlots orders a bucket by (time, seq). Buckets span one quantum
// and arrive mostly in registration order, so insertion sort beats the
// generic sort and allocates nothing.
func sortSlots(s []slot) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && v.before(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// heapPush files s into the far-tier min-heap.
func (k *Kernel) heapPush(s slot) {
	h := append(k.overflow, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	k.overflow = h
}

// heapPop removes and returns the far-tier minimum.
func (k *Kernel) heapPop() slot {
	h := k.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = slot{}
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.overflow = h
	return top
}
