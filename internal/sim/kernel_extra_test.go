package sim

import (
	"slices"
	"testing"
)

func TestKernelCancelAlreadyFired(t *testing.T) {
	k := NewKernel()
	tm := k.NewTimer(func() {})
	tm.ArmAt(10)
	k.Run()
	if tm.Disarm() {
		t.Error("Disarm of already-fired event reported true")
	}
}

func TestKernelRunUntilEmptyWindow(t *testing.T) {
	// RunUntil across a window with no events still advances the clock,
	// and events scheduled after the jump fire in order — including ones
	// earlier than the wheel position the peek left behind.
	k := NewKernel()
	var got []Time
	k.NewTimer(func() { got = append(got, k.Now()) }).ArmAt(10)
	k.NewTimer(func() { got = append(got, k.Now()) }).ArmAt(5 * wheelSpan)
	k.RunUntil(2 * wheelSpan) // fires 10, clock lands mid-gap
	if k.Now() != 2*wheelSpan {
		t.Fatalf("Now = %v, want %v", k.Now(), 2*wheelSpan)
	}
	// Schedule between the deadline and the far pending event.
	k.NewTimer(func() { got = append(got, k.Now()) }).ArmAt(3 * wheelSpan)
	k.NewTimer(func() { got = append(got, k.Now()) }).ArmAt(k.Now() + 1)
	k.Run()
	want := []Time{10, 2*wheelSpan + 1, 3 * wheelSpan, 5 * wheelSpan}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestKernelHorizonBoundary(t *testing.T) {
	// Events exactly at and just beyond the wheel horizon split across
	// tiers but still fire in timestamp order.
	k := NewKernel()
	var got []Time
	for _, d := range []Time{wheelSpan + 1, wheelSpan, wheelSpan - 1, 1, 2 * wheelSpan} {
		k.NewTimer(func() { got = append(got, k.Now()) }).ArmAt(d)
	}
	k.Run()
	want := []Time{1, wheelSpan - 1, wheelSpan, wheelSpan + 1, 2 * wheelSpan}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestKernelInterleavedTiers(t *testing.T) {
	// A far event that becomes near-range after the wheel advances must
	// still fire before later wheel events (the two-tier merge).
	k := NewKernel()
	var got []Time
	k.NewTimer(func() { got = append(got, k.Now()) }).ArmAt(wheelSpan + 10) // overflow at insert
	k.NewTimer(func() {
		// Wheel has advanced; this lands after the overflow event in
		// time but in the near tier.
		k.NewTimer(func() { got = append(got, k.Now()) }).ArmAt(wheelSpan + 20)
	}).ArmAt(quantum)
	k.Run()
	if len(got) != 2 || got[0] != wheelSpan+10 || got[1] != wheelSpan+20 {
		t.Fatalf("fired %v, want [%v %v]", got, wheelSpan+10, wheelSpan+20)
	}
}

func TestClockFreqRoundTrip(t *testing.T) {
	// Fractional-kHz frequencies must survive the MHz -> kHz -> MHz
	// round trip: int64 truncation used to drop 71.428 MHz to 71.427.
	for _, mhz := range []float64{71.428, 122.88, 500, 71, 33.333, 0.001} {
		clk := NewClock(mhz)
		if got := clk.FreqMHz(); got != mhz {
			t.Errorf("NewClock(%v).FreqMHz() = %v, want exact round trip", mhz, got)
		}
	}
}

// --- BenchmarkKernel*: scheduler micro-benchmarks. Run with -benchmem;
// the Timer paths must report 0 allocs/op. ---

// BenchmarkKernelTimerRearm is the steady-state instruction-issue shape:
// one timer re-armed one cycle ahead, forever.
func BenchmarkKernelTimerRearm(b *testing.B) {
	k := NewKernel()
	n := 0
	var tm *Timer
	tm = k.NewTimer(func() {
		n++
		if n < b.N {
			tm.ArmAfter(2 * Nanosecond)
		}
	})
	tm.ArmAfter(2 * Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelTimerFanout models a many-core machine: 480 timers all
// re-arming each cycle (the Fig. 1 system's issue pressure).
func BenchmarkKernelTimerFanout(b *testing.B) {
	k := NewKernel()
	const cores = 480
	timers := make([]*Timer, cores)
	fired := 0
	for i := range timers {
		i := i
		timers[i] = k.NewTimer(func() {
			fired++
			if fired < b.N {
				timers[i].ArmAfter(2 * Nanosecond)
			}
		})
	}
	for _, tm := range timers {
		tm.ArmAfter(2 * Nanosecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N && k.step() {
	}
}

// BenchmarkKernelCancelRearm is the old scheduleIssue dance — cancel a
// pending registration and move it earlier — as a Timer ArmAt.
func BenchmarkKernelCancelRearm(b *testing.B) {
	k := NewKernel()
	n := 0
	var tm *Timer
	tm = k.NewTimer(func() {
		n++
		if n < b.N {
			tm.ArmAfter(4 * Nanosecond)
			tm.ArmAfter(2 * Nanosecond) // move it, abandoning the slot
		}
	})
	tm.ArmAfter(2 * Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelMixedHorizon stresses both tiers: a near re-arming
// timer against a far one that keeps forcing overflow traffic.
func BenchmarkKernelMixedHorizon(b *testing.B) {
	k := NewKernel()
	n := 0
	var near, far *Timer
	near = k.NewTimer(func() {
		n++
		if n < b.N {
			near.ArmAfter(2 * Nanosecond)
		}
	})
	far = k.NewTimer(func() { far.ArmAfter(2 * wheelSpan) })
	near.ArmAfter(2 * Nanosecond)
	far.ArmAfter(2 * wheelSpan)
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N && k.step() {
	}
}

// BenchmarkKernelClosureEvents builds a fresh timer for every event: the
// allocating baseline the re-armed Timer paths are measured against.
func BenchmarkKernelClosureEvents(b *testing.B) {
	k := NewKernel()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			k.NewTimer(next).ArmAfter(2 * Nanosecond)
		}
	}
	k.NewTimer(next).ArmAfter(2 * Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// TestKernelHorizonAndTies orders events far beyond the wheel's
// horizon, inside it, in the current bucket and as a same-time pair:
// time order across the tiers, registration order among ties.
func TestKernelHorizonAndTies(t *testing.T) {
	k := NewKernel()
	var got []Time
	note := func() { got = append(got, k.Now()) }
	k.NewTimer(note).ArmAt(3*wheelSpan + 5)
	k.NewTimer(note).ArmAt(wheelSpan / 2)
	order := []int{}
	k.NewTimer(func() { order = append(order, 1) }).ArmAt(wheelSpan / 2)
	k.NewTimer(func() { order = append(order, 2) }).ArmAt(wheelSpan / 2)
	k.NewTimer(note).ArmAt(1)
	k.Run()
	want := []Time{1, wheelSpan / 2, 3*wheelSpan + 5}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("same-time FIFO order = %v", order)
	}
}

// testWaker is a Waker with an identity to compare and an optional
// body.
type testWaker struct{ fn func() }

func (w *testWaker) Fire() {
	if w.fn != nil {
		w.fn()
	}
}

// TestAbsorbNextAndHeadPeek drives the batched executor's primitives
// from inside a firing event: NextForeign names the queue head's time
// and Waker without popping, AbsorbNext consumes it only for the timer
// that owns it, across both tiers.
func TestAbsorbNextAndHeadPeek(t *testing.T) {
	k := NewKernel()
	var a, b, c, far Timer
	absorbed := func() { t.Error("an absorbed timer fired") }
	wa, wb, wc, wfar := &testWaker{}, &testWaker{fn: absorbed}, &testWaker{fn: absorbed}, &testWaker{}
	peek := func(wantT Time, wantW Waker) {
		t.Helper()
		if gotT, gotW, ok := k.NextForeign(); !ok || gotT != wantT || gotW != wantW {
			t.Fatalf("NextForeign = (%v, %p, %v), want (%v, %p, true)", gotT, gotW, ok, wantT, wantW)
		}
	}
	wa.fn = func() {
		seq := k.Seq()
		peek(10, wb)
		if k.AbsorbNext(&c) {
			t.Fatal("AbsorbNext took a timer that is not the head")
		}
		if !k.AbsorbNext(&b) || k.Now() != 10 || b.Armed() {
			t.Fatal("AbsorbNext(b) did not consume the head")
		}
		peek(15, nil) // the closure event
		if k.AbsorbNext(&c) {
			t.Fatal("AbsorbNext jumped a closure event")
		}
		if k.Seq() != seq || k.Fired() != 2 || k.Pending() != 3 {
			t.Errorf("after one absorb: seq %d (was %d), fired %d, pending %d", k.Seq(), seq, k.Fired(), k.Pending())
		}
	}
	a.Init(k, wa)
	b.Init(k, wb)
	c.Init(k, wc)
	far.Init(k, wfar)
	a.ArmAt(10)
	b.ArmAt(10)
	k.NewTimer(func() {
		peek(20, wc)
		if !k.AbsorbNext(&c) || k.Now() != 20 {
			t.Fatal("AbsorbNext(c) did not consume the head")
		}
		// Only the far tier is left: the peek walks and rebases.
		peek(3*wheelSpan, wfar)
		if k.AbsorbNext(&c) {
			t.Fatal("AbsorbNext consumed a disarmed timer")
		}
	}).ArmAt(15)
	c.ArmAt(20)
	far.ArmAt(3 * wheelSpan)
	k.Run()
	if k.Fired() != 5 || k.Pending() != 0 || k.Now() != 3*wheelSpan {
		t.Fatalf("fired=%d pending=%d now=%v", k.Fired(), k.Pending(), k.Now())
	}
	if _, _, ok := k.NextForeign(); ok {
		t.Error("NextForeign reports a head on an empty queue")
	}
}
