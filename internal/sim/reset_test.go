package sim

import (
	"math/rand"
	"testing"
)

// A kernel is reset by restoring the snapshot taken at its construction;
// these tests hold that reset to the contract machines rely on: a reset
// kernel is indistinguishable from a freshly built one.

// TestKernelResetEmpty checks a reset kernel is indistinguishable from
// a fresh one on the observable counters.
func TestKernelResetEmpty(t *testing.T) {
	k := NewKernel()
	pristine := k.Snapshot()
	k.NewTimer(func() {}).ArmAfter(5 * Nanosecond)
	k.NewTimer(func() {}).ArmAfter(2 * wheelSpan) // far tier
	k.Run()
	k.NewTimer(func() {}).ArmAfter(3 * Nanosecond)
	k.Restore(pristine)
	if k.Now() != 0 || k.Fired() != 0 || k.Pending() != 0 || k.seq != 0 {
		t.Fatalf("after reset: now=%v fired=%d pending=%d seq=%d, want all zero",
			k.Now(), k.Fired(), k.Pending(), k.seq)
	}
}

// TestKernelResetDisarmsEverything arms events and timers across both
// tiers, resets, and checks nothing fires afterwards and the timers
// remain usable.
func TestKernelResetDisarmsEverything(t *testing.T) {
	k := NewKernel()
	pristine := k.Snapshot()
	fired := 0
	tm := k.NewTimer(func() { fired++ })
	tm.ArmAfter(10 * Nanosecond)
	far := k.NewTimer(func() { fired++ })
	far.ArmAfter(4 * wheelSpan)
	k.NewTimer(func() { fired++ }).ArmAfter(20 * Nanosecond)

	k.Restore(pristine)
	if tm.Armed() || far.Armed() {
		t.Fatalf("timers still armed after reset")
	}
	k.RunFor(8 * wheelSpan)
	if fired != 0 {
		t.Fatalf("%d stale events fired after reset", fired)
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
				d = Time(rng.Intn(int(wheelSpan)))
			default:
				d = wheelSpan + Time(rng.Intn(int(wheelSpan)))
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
		pristine := dirty.Snapshot()
		// Pollute the kernel with an unrelated run, leave events pending,
		// then reset.
		run(dirty, schedule(seed+100))
		dirty.NewTimer(func() { t.Error("stale event fired") }).ArmAfter(3 * Nanosecond)
		dirty.NewTimer(func() {}).ArmAfter(5 * wheelSpan)
		dirty.Restore(pristine)
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
