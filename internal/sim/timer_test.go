package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTimerFires(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	tm := k.NewTimer(func() { at = k.Now() })
	tm.ArmAt(100)
	if !tm.Armed() || tm.When() != 100 {
		t.Fatalf("Armed=%v When=%v, want true/100", tm.Armed(), tm.When())
	}
	k.Run()
	if at != 100 {
		t.Errorf("fired at %v, want 100", at)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerRearmMoves(t *testing.T) {
	k := NewKernel()
	var fires []Time
	tm := k.NewTimer(func() { fires = append(fires, k.Now()) })
	tm.ArmAt(100)
	tm.ArmAt(50) // moves earlier
	k.Run()
	tm.ArmAt(200)
	tm.ArmAt(300) // moves later
	k.Run()
	if len(fires) != 2 || fires[0] != 50 || fires[1] != 300 {
		t.Errorf("fires = %v, want [50 300]", fires)
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d after runs, want 0", k.Pending())
	}
}

func TestTimerDisarm(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.NewTimer(func() { fired = true })
	if tm.Disarm() {
		t.Error("Disarm of never-armed timer reported true")
	}
	tm.ArmAt(10)
	if !tm.Disarm() {
		t.Error("Disarm of armed timer reported false")
	}
	if tm.Disarm() {
		t.Error("double Disarm reported true")
	}
	k.Run()
	if fired {
		t.Error("disarmed timer fired")
	}
	// Still usable after disarm.
	tm.ArmAt(20)
	k.Run()
	if !fired {
		t.Error("re-armed timer did not fire")
	}
}

func TestTimerPeriodicFromCallback(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	var tm *Timer
	tm = k.NewTimer(func() {
		ticks = append(ticks, k.Now())
		if len(ticks) < 5 {
			tm.ArmAfter(10)
		}
	})
	tm.ArmAt(10)
	k.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTimerFIFOWithEvents(t *testing.T) {
	// A timer armed between two one-shot timers at the same timestamp
	// fires between them: one (time, seq) order across every registration.
	k := NewKernel()
	var got []int
	k.NewTimer(func() { got = append(got, 1) }).ArmAt(5)
	tm := k.NewTimer(func() { got = append(got, 2) })
	tm.ArmAt(5)
	k.NewTimer(func() { got = append(got, 3) }).ArmAt(5)
	k.Run()
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("order = %v, want [1 2 3]", got)
		}
	}
}

func TestTimerRearmSameTimeKeepsOrder(t *testing.T) {
	// Re-arming at the already-armed time must keep the registration
	// (and so the FIFO slot), not move the timer behind later arrivals.
	k := NewKernel()
	var got []int
	tm := k.NewTimer(func() { got = append(got, 1) })
	tm.ArmAt(5)
	k.NewTimer(func() { got = append(got, 2) }).ArmAt(5)
	tm.ArmAt(5) // no-op: same time
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("order = %v, want [1 2]", got)
	}
}

func TestTimerArmEarliest(t *testing.T) {
	k := NewKernel()
	var fires []Time
	tm := k.NewTimer(func() { fires = append(fires, k.Now()) })
	tm.ArmEarliest(100)
	tm.ArmEarliest(200) // keeps 100
	tm.ArmEarliest(50)  // moves to 50
	k.Run()
	if len(fires) != 1 || fires[0] != 50 {
		t.Errorf("fires = %v, want [50]", fires)
	}
}

func TestTimerPastArmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arming in the past did not panic")
		}
	}()
	k := NewKernel()
	tm := k.NewTimer(func() {})
	k.NewTimer(func() { tm.ArmAt(50) }).ArmAt(100)
	k.Run()
}

func TestTimerNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative ArmAfter did not panic")
		}
	}()
	k := NewKernel()
	k.NewTimer(func() {}).ArmAfter(-1)
}

func TestNewTimerNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTimer(nil) did not panic")
		}
	}()
	NewKernel().NewTimer(nil)
}

func TestTimerFarFuture(t *testing.T) {
	// Arm beyond the wheel horizon (overflow tier), re-arm into the
	// near tier, and the earlier firing must win.
	k := NewKernel()
	var fires []Time
	tm := k.NewTimer(func() { fires = append(fires, k.Now()) })
	tm.ArmAt(10 * wheelSpan)
	tm.ArmAt(100)
	k.Run()
	if len(fires) != 1 || fires[0] != 100 {
		t.Errorf("fires = %v, want [100]", fires)
	}
	// And the reverse: near registration abandoned for a far one.
	tm.ArmAt(200)
	tm.ArmAt(20 * wheelSpan)
	k.Run()
	if len(fires) != 2 || fires[1] != 20*wheelSpan {
		t.Errorf("fires = %v, want second at %v", fires, 20*wheelSpan)
	}
}

// TestTimerSteadyStateZeroAlloc is the allocation guard the issue-loop
// conversion relies on: a warmed-up arm/fire/re-arm cycle — the
// steady-state shape of Core.scheduleIssue — allocates zero events.
func TestTimerSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	n := 0
	var tm *Timer
	tm = k.NewTimer(func() {
		n++
		tm.ArmAfter(2 * Nanosecond) // one 500 MHz cycle, like the issue loop
	})
	tm.ArmAfter(2 * Nanosecond)
	// Warm up so bucket capacities reach steady state.
	for i := 0; i < 4096; i++ {
		k.step()
	}
	allocs := testing.AllocsPerRun(4096, func() { k.step() })
	if allocs != 0 {
		t.Errorf("steady-state issue loop allocates %v per event, want 0", allocs)
	}
}

// TestTimerFarRearmZeroAlloc guards the overflow tier the same way.
func TestTimerFarRearmZeroAlloc(t *testing.T) {
	k := NewKernel()
	var tm *Timer
	tm = k.NewTimer(func() { tm.ArmAfter(2 * wheelSpan) })
	tm.ArmAfter(2 * wheelSpan)
	for i := 0; i < 64; i++ {
		k.step()
	}
	allocs := testing.AllocsPerRun(64, func() { k.step() })
	if allocs != 0 {
		t.Errorf("far-future re-arm allocates %v per event, want 0", allocs)
	}
}

// refSched is a brute-force reference scheduler: a flat slice popped by
// linear minimum scan under the (time, seq) order.
type refSched struct {
	now  Time
	seq  uint64
	evs  []refEv
	hist []uint64
}

type refEv struct {
	when Time
	seq  uint64
	id   uint64
}

func (r *refSched) schedule(id uint64, when Time) {
	r.evs = append(r.evs, refEv{when: when, seq: r.seq, id: id})
	r.seq++
}

func (r *refSched) cancel(id uint64) {
	for i := range r.evs {
		if r.evs[i].id == id {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return
		}
	}
}

func (r *refSched) popOne() bool {
	if len(r.evs) == 0 {
		return false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		e, b := r.evs[i], r.evs[best]
		if e.when < b.when || (e.when == b.when && e.seq < b.seq) {
			best = i
		}
	}
	e := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	r.now = e.when
	r.hist = append(r.hist, e.id)
	return true
}

func (r *refSched) run() {
	for r.popOne() {
	}
}

// TestKernelMatchesReference drives the ladder queue and a brute-force
// reference scheduler through the same randomized schedule/cancel/re-arm
// script and requires identical fire sequences: the determinism contract,
// checked across bucket boundaries, horizon overflow and rebasing. Delays
// are drawn in wheel units, so every seed mixes same-bucket, in-wheel and
// overflow registrations. The subtest is named for the wheel's quantum
// shift.
func TestKernelMatchesReference(t *testing.T) {
	t.Run(fmt.Sprintf("shift%d", quantumShift), kernelMatchesReference)
}

func kernelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		ref := &refSched{}
		var got []uint64
		var id uint64

		timers := make([]*Timer, 8)
		timerIDs := make([]uint64, 8)
		for i := range timers {
			i := i
			timers[i] = k.NewTimer(func() { got = append(got, timerIDs[i]) })
		}
		var open []*Timer
		openIDs := map[*Timer]uint64{}

		delay := func() Time {
			// Mix near (same bucket), mid (in-wheel) and far (overflow).
			switch rng.Intn(4) {
			case 0:
				return Time(rng.Int63n(int64(quantum)))
			case 1:
				return Time(rng.Int63n(int64(wheelSpan)))
			default:
				return Time(rng.Int63n(3 * int64(wheelSpan)))
			}
		}

		for op := 0; op < 400; op++ {
			switch rng.Intn(5) {
			case 0, 1: // one-shot: a fresh timer armed once
				id++
				d := delay()
				myID := id
				tm := k.NewTimer(func() { got = append(got, myID) })
				tm.ArmAt(k.Now() + d)
				ref.schedule(myID, k.Now()+d)
				open = append(open, tm)
				openIDs[tm] = myID
			case 2: // (re-)arm a timer
				i := rng.Intn(len(timers))
				d := delay()
				at := k.Now() + d
				if timers[i].Armed() && timers[i].When() == at {
					break // same-time re-arm keeps the registration
				}
				if timers[i].Armed() {
					ref.cancel(timerIDs[i])
				}
				id++
				timerIDs[i] = id
				timers[i].ArmAt(at)
				ref.schedule(id, at)
			case 3: // cancel a pending one-shot
				if len(open) == 0 {
					break
				}
				i := rng.Intn(len(open))
				tm := open[i]
				open = append(open[:i], open[i+1:]...)
				if tm.Disarm() {
					ref.cancel(openIDs[tm])
				}
				delete(openIDs, tm)
			case 4: // disarm a timer
				i := rng.Intn(len(timers))
				if timers[i].Disarm() {
					ref.cancel(timerIDs[i])
				}
			}
			// Occasionally let time progress so later schedules land in
			// drained buckets and force rebasing; mirror one reference
			// pop per kernel step.
			if rng.Intn(8) == 0 {
				for s := rng.Intn(4); s > 0 && k.step(); s-- {
					ref.popOne()
				}
			}
		}
		k.Run()
		ref.run()
		if len(got) != len(ref.hist) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(ref.hist))
		}
		for i := range got {
			if got[i] != ref.hist[i] {
				t.Fatalf("seed %d: divergence at %d: kernel %d, reference %d",
					seed, i, got[i], ref.hist[i])
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: Pending = %d after drain", seed, k.Pending())
		}
	}
}

// wakeCounter is a Waker for the embedded-timer path.
type wakeCounter struct{ n int }

func (w *wakeCounter) Fire() { w.n++ }

// TestWakerTimerInit exercises the embedded value-Timer + Waker path:
// no closure, same arm/fire/disarm semantics as NewTimer.
func TestWakerTimerInit(t *testing.T) {
	k := NewKernel()
	var holder struct {
		w  wakeCounter
		tm Timer
	}
	holder.tm.Init(k, &holder.w)
	if holder.tm.Armed() {
		t.Fatal("fresh timer armed")
	}
	holder.tm.ArmAfter(4 * Nanosecond)
	holder.tm.ArmEarliest(2 * Nanosecond)
	k.Run()
	if holder.w.n != 1 {
		t.Fatalf("waker fired %d times, want 1", holder.w.n)
	}
	if got := k.Now(); got != 2*Nanosecond {
		t.Fatalf("fired at %v, want 2ns", got)
	}
	holder.tm.ArmAfter(Nanosecond)
	if !holder.tm.Disarm() {
		t.Fatal("Disarm on armed timer reported false")
	}
	k.Run()
	if holder.w.n != 1 {
		t.Fatalf("disarmed waker fired: %d", holder.w.n)
	}
}
