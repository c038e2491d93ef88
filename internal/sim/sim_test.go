package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// step fires the single next event, as a drain bounded by that event's
// own time, and reports false when the queue is empty: the finest cut of
// the event sequence, for the reference tests. Product code drains to a
// deadline (RunUntil).
func (k *Kernel) step() bool {
	s, far, ok := k.head()
	if !ok {
		return false
	}
	k.deadline = s.when
	k.pop(s, far)
	k.fireSlot(s)
	k.deadline = k.now
	return true
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.NewTimer(func() { got = append(got, 3) }).ArmAt(30)
	k.NewTimer(func() { got = append(got, 1) }).ArmAt(10)
	k.NewTimer(func() { got = append(got, 2) }).ArmAt(20)
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameTime(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.NewTimer(func() { got = append(got, i) }).ArmAt(5)
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events fired out of schedule order at %d: %v", i, got[:i+1])
		}
	}
}

func TestKernelAfter(t *testing.T) {
	k := NewKernel()
	var at Time
	k.NewTimer(func() {
		k.NewTimer(func() { at = k.Now() }).ArmAfter(50)
	}).ArmAt(100)
	k.Run()
	if at != 150 {
		t.Errorf("ArmAfter fired at %v, want 150", at)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.NewTimer(func() { fired = true })
	tm.ArmAt(10)
	if !tm.Disarm() {
		t.Fatal("Disarm reported false for pending event")
	}
	if tm.Disarm() {
		t.Fatal("double Disarm reported true")
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestKernelCancelNil(t *testing.T) {
	k := NewKernel()
	if k.cancel(nil) {
		t.Error("cancel(nil) reported true")
	}
}

func TestKernelCancelMiddleOfHeap(t *testing.T) {
	k := NewKernel()
	var got []int
	timers := make([]*Timer, 10)
	for i := 0; i < 10; i++ {
		i := i
		timers[i] = k.NewTimer(func() { got = append(got, i) })
		timers[i].ArmAt(Time(i * 10))
	}
	timers[4].Disarm()
	timers[7].Disarm()
	k.Run()
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.NewTimer(func() { count++ }).ArmAt(Time(i * 100))
	}
	k.RunUntil(500)
	if count != 5 {
		t.Errorf("RunUntil(500) fired %d, want 5", count)
	}
	if k.Now() != 500 {
		t.Errorf("Now = %v, want 500", k.Now())
	}
	if k.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", k.Pending())
	}
	k.Run()
	if count != 10 {
		t.Errorf("Run fired %d total, want 10", count)
	}
}

// TestDeadlineIsNowOutsideADrain: a drain publishes its bound — the
// RunUntil deadline, or none under Run — to the events it fires, and
// everywhere else the deadline is the clock itself: after NewKernel,
// after either drain returns and after a Restore to an earlier time. So
// nothing can be stepped, counted or run ahead of the clock outside a
// drain.
func TestDeadlineIsNowOutsideADrain(t *testing.T) {
	k := NewKernel()
	outside := func(when string) {
		t.Helper()
		if d := k.Deadline(); d != k.Now() {
			t.Errorf("%s: Deadline = %v, want Now %v", when, d, k.Now())
		}
	}
	outside("after NewKernel")
	var inside []Time
	probe := k.NewTimer(func() { inside = append(inside, k.Deadline()) })
	probe.ArmAt(100)
	k.RunUntil(500)
	outside("after RunUntil")
	snap := k.Snapshot()
	probe.ArmAt(700)
	k.Run()
	if k.Now() != 700 {
		t.Fatalf("Run ended at %v, want the last event's time 700", k.Now())
	}
	outside("after Run")
	k.RunUntil(300) // behind the clock: fires nothing, moves nothing
	outside("after a RunUntil behind the clock")
	k.Restore(snap)
	if k.Now() != 500 {
		t.Fatalf("Restore landed at %v, want 500", k.Now())
	}
	outside("after Restore to an earlier time")
	if want := []Time{500, forever}; !slices.Equal(inside, want) {
		t.Errorf("deadlines seen inside the drains = %v, want %v", inside, want)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s outside a drain did not panic", what)
			}
		}()
		f()
	}
	mustPanic("StepTo", func() { k.StepTo(k.Now() + 1) })
	mustPanic("StepN", func() { k.StepN(k.Now()+1, 2) })
}

func TestKernelRunForAdvancesClock(t *testing.T) {
	k := NewKernel()
	k.RunFor(1234)
	if k.Now() != 1234 {
		t.Errorf("empty RunFor: Now = %v, want 1234", k.Now())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	k := NewKernel()
	k.NewTimer(func() { k.NewTimer(func() {}).ArmAt(50) }).ArmAt(100)
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative ArmAfter delay did not panic")
		}
	}()
	NewKernel().NewTimer(func() {}).ArmAfter(-1)
}

func TestKernelDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var got []int
		for i := 0; i < 500; i++ {
			i := i
			k.NewTimer(func() { got = append(got, i) }).ArmAt(Time(rng.Intn(1000)))
		}
		k.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic schedule at %d", i)
		}
	}
}

// Property: any batch of events fires in nondecreasing time order.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var times []Time
		for _, d := range delays {
			k.NewTimer(func() { times = append(times, k.Now()) }).ArmAt(Time(d))
		}
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return k.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockPeriods(t *testing.T) {
	cases := []struct {
		mhz    float64
		period Time
	}{
		{500, 2000},
		{400, 2500},
		{250, 4000},
		{100, 10000},
		{71, 14085}, // 1e6/71 = 14084.5 -> rounds to 14085
	}
	for _, c := range cases {
		clk := NewClock(c.mhz)
		if clk.Period() != c.period {
			t.Errorf("NewClock(%v).Period = %v, want %v", c.mhz, clk.Period(), c.period)
		}
		if clk.FreqMHz() != c.mhz {
			t.Errorf("FreqMHz = %v, want %v", clk.FreqMHz(), c.mhz)
		}
	}
}

func TestClockCycles(t *testing.T) {
	clk := NewClock(500)
	if got := clk.Cycles(4); got != 8000 {
		t.Errorf("4 cycles @500MHz = %v, want 8000ps", got)
	}
}

func TestClockZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t Time
		s string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.s {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.s)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Nanosecond).Nanoseconds() != 2 {
		t.Error("Nanoseconds conversion wrong")
	}
	if Second.Seconds() != 1 {
		t.Error("Seconds conversion wrong")
	}
}
