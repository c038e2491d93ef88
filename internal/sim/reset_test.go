package sim

import (
	"math/rand"
	"testing"
)

// TestKernelResetEmpty checks a reset kernel is indistinguishable from
// a fresh one on the observable counters.
func TestKernelResetEmpty(t *testing.T) {
	k := NewKernel()
	k.NewTimer(func() {}).ArmAfter(5 * Nanosecond)
	k.NewTimer(func() {}).ArmAfter(2 * defaultWheelSpan) // far tier
	k.Run()
	k.NewTimer(func() {}).ArmAfter(3 * Nanosecond)
	k.Reset()
	if k.Now() != 0 || k.Fired() != 0 || k.Pending() != 0 || k.seq != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d seq=%d, want all zero",
			k.Now(), k.Fired(), k.Pending(), k.seq)
	}
}

// TestKernelResetDisarmsEverything arms events and timers across both
// tiers, resets, and checks nothing fires afterwards and the timers
// remain usable.
func TestKernelResetDisarmsEverything(t *testing.T) {
	k := NewKernel()
	fired := 0
	tm := k.NewTimer(func() { fired++ })
	tm.ArmAfter(10 * Nanosecond)
	far := k.NewTimer(func() { fired++ })
	far.ArmAfter(4 * defaultWheelSpan)
	k.NewTimer(func() { fired++ }).ArmAfter(20 * Nanosecond)

	k.Reset()
	if tm.Armed() || far.Armed() {
		t.Fatalf("timers still armed after Reset")
	}
	k.RunFor(8 * defaultWheelSpan)
	if fired != 0 {
		t.Fatalf("%d stale events fired after Reset", fired)
	}

	// The timer must re-arm cleanly on the reset kernel.
	tm.ArmAfter(7 * Nanosecond)
	k.Run()
	if fired != 1 {
		t.Fatalf("re-armed timer fired %d times, want 1", fired)
	}
}

// TestKernelResetDifferential replays an identical random schedule on a
// freshly built kernel and on a reset one; the fire orders must match
// exactly, which is the reset-equals-rebuild contract machines rely on.
func TestKernelResetDifferential(t *testing.T) {
	type op struct {
		delay Time
		id    int
	}
	schedule := func(seed int64) []op {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]op, 200)
		for i := range ops {
			// Mix near-tier, equal-time and far-tier delays.
			var d Time
			switch rng.Intn(3) {
			case 0:
				d = Time(rng.Intn(64))
			case 1:
				d = Time(rng.Intn(int(defaultWheelSpan)))
			default:
				d = defaultWheelSpan + Time(rng.Intn(int(defaultWheelSpan)))
			}
			ops[i] = op{delay: d, id: i}
		}
		return ops
	}
	run := func(k *Kernel, ops []op) []int {
		var order []int
		for _, o := range ops {
			o := o
			k.NewTimer(func() { order = append(order, o.id) }).ArmAfter(o.delay)
		}
		k.Run()
		return order
	}

	for seed := int64(1); seed <= 5; seed++ {
		ops := schedule(seed)
		fresh := run(NewKernel(), ops)

		dirty := NewKernel()
		// Pollute the kernel with an unrelated run, leave events pending,
		// then reset.
		run(dirty, schedule(seed+100))
		dirty.NewTimer(func() { t.Error("stale event fired") }).ArmAfter(3 * Nanosecond)
		dirty.NewTimer(func() {}).ArmAfter(5 * defaultWheelSpan)
		dirty.Reset()
		reset := run(dirty, ops)

		if len(fresh) != len(reset) {
			t.Fatalf("seed %d: fresh fired %d, reset fired %d", seed, len(fresh), len(reset))
		}
		for i := range fresh {
			if fresh[i] != reset[i] {
				t.Fatalf("seed %d: fire order diverges at %d: fresh %d, reset %d",
					seed, i, fresh[i], reset[i])
			}
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

// TestBucketBackingsStayPut: a drained bucket's backing stays with its
// wheel position, so a run that repeats exactly — Reset, the same arms,
// the same firings — finds every position sized by the run before it and
// allocates nothing from the second run on. (Backings used to move one
// position round the wheel with every bucket drained, and a repeated run
// kept growing them for as many runs as its event count happened to
// take.)
func TestBucketBackingsStayPut(t *testing.T) {
	k := NewKernel()
	left := 0
	timers := make([]*Timer, 48)
	for i := range timers {
		i := i
		timers[i] = k.NewTimer(func() {
			if left--; left > 0 {
				// Uneven delays, so the wheel's positions fill unevenly.
				timers[i].ArmAfter(Time(1+(i*37+left*11)%97) * k.Quantum() / 3)
			}
		})
	}
	op := func() {
		k.Reset()
		left = 4000
		for i, tm := range timers {
			tm.ArmAt(Time(i%5) * k.Quantum())
		}
		k.Run()
	}
	op()
	if allocs := testing.AllocsPerRun(5, op); allocs != 0 {
		t.Fatalf("a repeated run allocates %.1f times after one warm-up, want 0", allocs)
	}
}
