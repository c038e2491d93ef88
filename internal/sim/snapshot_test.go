package sim

import (
	"math/rand"
	"testing"
)

// liveSlots collects every live registration in (time, seq) order —
// the kernel's observable queue content for snapshot equivalence
// checks.
func liveSlots(k *Kernel) []slot {
	var out []slot
	capture := func(bucket []slot) {
		for i := range bucket {
			if s := bucket[i]; s.ev != nil && s.live() {
				out = append(out, s)
			}
		}
	}
	capture(k.cur[k.curHead:])
	for b := range k.wheel {
		capture(k.wheel[b])
	}
	capture(k.overflow)
	sortSlots(out)
	return out
}

// TestKernelSnapshotRestoreExact snapshots mid-run, runs to
// completion recording the (time, seq) fire sequence, restores, and
// checks the replayed remaining sequence is identical — the core
// warm-start contract at the kernel level.
func TestKernelSnapshotRestoreExact(t *testing.T) {
	type firing struct {
		when Time
		seq  uint64
	}
	k := NewKernel()
	var fires []firing
	// Periodic timers across both tiers plus one-shot timers.
	var near, far *Timer
	near = k.NewTimer(func() {
		fires = append(fires, firing{k.Now(), near.ev.seq})
		if k.Now() < 40*wheelSpan {
			near.ArmAfter(3 * Nanosecond)
		}
	})
	far = k.NewTimer(func() {
		fires = append(fires, firing{k.Now(), far.ev.seq})
		if k.Now() < 40*wheelSpan {
			far.ArmAfter(2 * wheelSpan)
		}
	})
	near.ArmAfter(1 * Nanosecond)
	far.ArmAfter(wheelSpan)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		at := Time(rng.Intn(int(30 * wheelSpan)))
		var tm *Timer
		tm = k.NewTimer(func() { fires = append(fires, firing{k.Now(), tm.ev.seq}) })
		tm.ArmAt(at)
	}

	k.RunUntil(10 * wheelSpan)
	snap := k.Snapshot()
	if snap.now != k.Now() {
		t.Fatalf("snapshot now %v, kernel now %v", snap.now, k.Now())
	}
	preSlots := liveSlots(k)

	fires = nil
	k.Run()
	want := append([]firing(nil), fires...)
	wantNow, wantFired, wantSeq := k.Now(), k.fired, k.seq

	k.Restore(snap)
	if k.Now() != snap.now || k.fired != snap.fired || k.seq != snap.seq {
		t.Fatalf("restore counters: now=%v fired=%d seq=%d, want %v/%d/%d",
			k.Now(), k.fired, k.seq, snap.now, snap.fired, snap.seq)
	}
	postSlots := liveSlots(k)
	if len(preSlots) != len(postSlots) {
		t.Fatalf("restore queue holds %d live slots, want %d", len(postSlots), len(preSlots))
	}
	for i := range preSlots {
		a, b := preSlots[i], postSlots[i]
		if a.when != b.when || a.seq != b.seq || a.ev != b.ev {
			t.Fatalf("slot %d: restored (%v, %d, %p), want (%v, %d, %p)",
				i, b.when, b.seq, b.ev, a.when, a.seq, a.ev)
		}
	}

	fires = nil
	k.Run()
	if len(fires) != len(want) {
		t.Fatalf("replay fired %d events, want %d", len(fires), len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("replay firing %d = %+v, want %+v", i, fires[i], want[i])
		}
	}
	if k.Now() != wantNow || k.fired != wantFired || k.seq != wantSeq {
		t.Fatalf("replay end state now=%v fired=%d seq=%d, want %v/%d/%d",
			k.Now(), k.fired, k.seq, wantNow, wantFired, wantSeq)
	}
}

// TestKernelSnapshotRandomizedBoundaries replays a random timer
// workload, snapshotting at arbitrary event boundaries; every restore
// must reproduce the identical remaining (time, seq) event sequence.
func TestKernelSnapshotRandomizedBoundaries(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		const nTimers = 16
		timers := make([]*Timer, nTimers)
		for i := range timers {
			i := i
			timers[i] = k.NewTimer(func() {
				// Rescheduling must be a pure function of (timer, now) so
				// the replayed suffix is identical: snapshots capture
				// kernel and component state, not host closure state.
				if k.Now() < 200*wheelSpan {
					h := uint64(k.Now())*2654435761 + uint64(i)*971
					d := Time(1 + h%uint64(2*wheelSpan))
					timers[i].ArmAfter(d)
				}
			})
			timers[i].ArmAfter(Time(1 + i))
		}
		steps := 0
		for steps < 500 && k.step() {
			steps++
		}
		// Snapshot at a random later event boundary.
		extra := rng.Intn(200)
		for i := 0; i < extra && k.step(); i++ {
		}
		snap := k.Snapshot()
		before := liveSlots(k)

		// Drive on from the boundary, recording times.
		var want []Time
		for i := 0; i < 300 && k.step(); i++ {
			want = append(want, k.Now())
		}

		k.Restore(snap)
		after := liveSlots(k)
		if len(before) != len(after) {
			t.Fatalf("seed %d: %d live slots after restore, want %d", seed, len(after), len(before))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("seed %d: slot %d = %+v, want %+v", seed, i, after[i], before[i])
			}
		}
		var got []Time
		for i := 0; i < 300 && k.step(); i++ {
			got = append(got, k.Now())
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: replay fired %d, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: replay step %d at %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestKernelSnapshotEmpty round-trips a kernel with no pending events.
func TestKernelSnapshotEmpty(t *testing.T) {
	k := NewKernel()
	k.NewTimer(func() {}).ArmAfter(5 * Nanosecond)
	k.Run()
	snap := k.Snapshot()
	if len(snap.slots) != 0 {
		t.Fatalf("empty kernel snapshot holds %d slots", len(snap.slots))
	}
	k.NewTimer(func() { t.Fatal("stale event fired after restore") }).ArmAfter(3 * Nanosecond)
	k.Restore(snap)
	k.RunFor(Microsecond)
	if k.Pending() != 0 {
		t.Fatalf("pending %d after restore+run", k.Pending())
	}
}

// TestKernelRestoreAfterReset proves a snapshot survives an
// intervening reset — a restore of the snapshot taken at construction,
// which is how a machine resets: restore rewinds forward again to the
// captured mid-run state.
func TestKernelRestoreAfterReset(t *testing.T) {
	k := NewKernel()
	pristine := k.Snapshot()
	count := 0
	var tick *Timer
	tick = k.NewTimer(func() {
		count++
		if count < 100 {
			tick.ArmAfter(2 * Nanosecond)
		}
	})
	tick.ArmAfter(Nanosecond)
	for i := 0; i < 40; i++ {
		k.step()
	}
	snap := k.Snapshot()
	atSnap := count
	k.Restore(pristine)
	if tick.Armed() {
		t.Fatal("timer armed after the reset")
	}
	k.Restore(snap)
	if !tick.Armed() {
		t.Fatal("timer not re-armed by Restore")
	}
	k.Run()
	if count != atSnap+(100-atSnap) {
		t.Fatalf("count %d after restore+run, want 100", count)
	}
}

// TestBucketBackingsStayPut: a drained bucket's backing stays with its
// wheel position, so a run that repeats exactly — a restore of the
// snapshot taken at construction, the same arms, the same firings —
// finds every position sized by the run before it and allocates nothing
// from the second run on. (Backings used to move one
// position round the wheel with every bucket drained, and a repeated run
// kept growing them for as many runs as its event count happened to
// take.)
func TestBucketBackingsStayPut(t *testing.T) {
	k := NewKernel()
	pristine := k.Snapshot()
	left := 0
	timers := make([]*Timer, 48)
	for i := range timers {
		i := i
		timers[i] = k.NewTimer(func() {
			if left--; left > 0 {
				// Uneven delays, so the wheel's positions fill unevenly.
				timers[i].ArmAfter(Time(1+(i*37+left*11)%97) * quantum / 3)
			}
		})
	}
	op := func() {
		k.Restore(pristine)
		left = 4000
		for i, tm := range timers {
			tm.ArmAt(Time(i%5) * quantum)
		}
		k.Run()
	}
	op()
	if allocs := testing.AllocsPerRun(5, op); allocs != 0 {
		t.Fatalf("a repeated run allocates %.1f times after one warm-up, want 0", allocs)
	}
}
