package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// kernelState is everything a stepping primitive may move, plus the
// queue head the next primitive would find.
func kernelState(k *Kernel) string {
	s, far, ok := k.head()
	return fmt.Sprintf("now=%d seq=%d fired=%d pending=%d head=(%d,%d,far=%v,%v)",
		k.Now(), k.Seq(), k.Fired(), k.Pending(), s.when, s.seq, far, ok)
}

// TestStepNMatchesStepTo holds one counted step against the StepTo
// calls it stands for: twin kernels with the same randomized queue —
// registrations in both tiers, stale slots left by cancels and re-arms,
// sometimes nothing pending at all — step from inside a firing event to
// the same final time, one slot at a time and all at once, under Run
// and under a RunUntil whose deadline is the final time itself. Clock,
// counters, the head the next primitive finds and everything that fires
// afterwards must agree.
func TestStepNMatchesStepTo(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := wheelSpan
		start := Time(1 + rng.Int63n(int64(span)))
		// The steps: n monotone times (ties allowed) after start.
		n := 1 + rng.Intn(40)
		times := make([]Time, n)
		at := start
		for i := range times {
			at += Time(rng.Int63n(int64(span) / 8))
			times[i] = at
		}
		last := times[n-1]
		// The queue: everything strictly after the final time.
		type reg struct {
			when   Time
			cancel bool
			rearm  Time
		}
		regs := make([]reg, rng.Intn(12))
		for i := range regs {
			r := reg{when: last + 1 + Time(rng.Int63n(int64(span)*3))}
			switch rng.Intn(4) {
			case 0:
				r.cancel = true
			case 1:
				r.rearm = last + 1 + Time(rng.Int63n(int64(span)*3))
			}
			regs[i] = r
		}
		bounded := rng.Intn(2) == 0

		run := func(counted bool) (mid string, fired []string) {
			k := NewKernel()
			timers := make([]*Timer, len(regs))
			for i := range regs {
				i := i
				timers[i] = k.NewTimer(func() { fired = append(fired, fmt.Sprintf("%d@%d/%d", i, k.Now(), k.Seq())) })
			}
			k.NewTimer(func() {
				for i, r := range regs {
					timers[i].ArmAt(r.when)
					if r.cancel {
						timers[i].Disarm()
					} else if r.rearm != 0 {
						timers[i].ArmAt(r.rearm)
					}
				}
				if counted {
					k.StepN(last, n)
				} else {
					for _, when := range times {
						k.StepTo(when)
					}
				}
				mid = kernelState(k)
			}).ArmAt(start)
			if bounded {
				k.RunUntil(last)
			}
			k.Run()
			return mid, append(fired, kernelState(k))
		}
		slotMid, slotFired := run(false)
		nMid, nFired := run(true)
		if slotMid != nMid {
			t.Fatalf("seed %d: after %d steps to %v\n StepTo x n: %s\n StepN:      %s", seed, n, last, slotMid, nMid)
		}
		if fmt.Sprint(slotFired) != fmt.Sprint(nFired) {
			t.Fatalf("seed %d: the runs diverge after the steps\n StepTo x n: %v\n StepN:      %v", seed, slotFired, nFired)
		}
	}
}

// TestStepNPanics pins the counted step to StepTo's three contract
// checks, made against the final time — backwards, onto or past a
// pending registration in either tier, beyond the active RunUntil
// deadline — and to StepTo sharing them; a negative count is a fourth.
func TestStepNPanics(t *testing.T) {
	const deadline = 8 * wheelSpan
	// step runs f from inside an event at time 100, under
	// RunUntil(deadline), with timers pending at the given times, and
	// requires a panic containing want — or none when want is empty.
	step := func(name, want string, pending []Time, f func(k *Kernel)) {
		t.Helper()
		k := NewKernel()
		k.NewTimer(func() {
			defer func() {
				t.Helper()
				msg, _ := recover().(string)
				if msg == "" && want != "" || !strings.Contains(msg, want) {
					t.Errorf("%s: recovered %q, want a panic containing %q", name, msg, want)
				}
			}()
			f(k)
		}).ArmAt(100)
		for _, when := range pending {
			k.NewTimer(func() {}).ArmAt(when)
		}
		k.RunUntil(deadline)
	}
	both := []Time{200, 4 * wheelSpan} // one registration per tier
	farOnly := both[1:]
	step("backwards", "behind now", both, func(k *Kernel) { k.StepN(99, 3) })
	step("StepTo backwards", "behind now", both, func(k *Kernel) { k.StepTo(99) })
	step("onto pending", "would pass pending event at", both, func(k *Kernel) { k.StepN(200, 3) })
	step("past pending", "would pass pending event at", both, func(k *Kernel) { k.StepN(201, 3) })
	step("StepTo onto pending", "would pass pending event at", both, func(k *Kernel) { k.StepTo(200) })
	step("onto far pending", "would pass pending event at", farOnly, func(k *Kernel) { k.StepN(farOnly[0], 3) })
	step("short of far pending", "", farOnly, func(k *Kernel) { k.StepN(farOnly[0]-1, 3) })
	step("past deadline", "beyond deadline", nil, func(k *Kernel) { k.StepN(deadline+1, 3) })
	step("StepTo past deadline", "beyond deadline", nil, func(k *Kernel) { k.StepTo(deadline + 1) })
	step("onto deadline", "", nil, func(k *Kernel) { k.StepN(deadline, 3) })
	step("negative count", "negative count", both, func(k *Kernel) { k.StepN(150, -1) })
}

// TestStepNZeroIsNoOp: a count of zero takes no step, whatever time it
// names — replay flushes unconditionally on its way out.
func TestStepNZeroIsNoOp(t *testing.T) {
	k := NewKernel()
	k.NewTimer(func() {}).ArmAt(200)
	k.NewTimer(func() {
		before := kernelState(k)
		for _, when := range []Time{0, 100, 150, 200, 1 << 40} {
			k.StepN(when, 0)
		}
		if after := kernelState(k); after != before {
			t.Errorf("StepN(_, 0) moved the kernel\n before %s\n after  %s", before, after)
		}
	}).ArmAt(100)
	k.RunUntil(300)
}

// TestStepNZeroAllocs: the counted step allocates nothing, with
// registrations pending in both tiers for its check to walk. It steps
// from inside a firing event, as the batched fast path does: outside a
// drain the deadline is the clock, and no step may pass it.
func TestStepNZeroAllocs(t *testing.T) {
	k := NewKernel()
	k.NewTimer(func() {}).ArmAt(wheelSpan / 2)
	k.NewTimer(func() {}).ArmAt(4 * wheelSpan)
	at := Time(1)
	k.NewTimer(func() {
		allocs := testing.AllocsPerRun(100, func() {
			at += 16
			k.StepN(at, 16)
			k.StepTo(at)
		})
		if allocs != 0 {
			t.Errorf("StepN allocates: %.1f per call, want 0", allocs)
		}
		if k.Seq() == 0 || k.Now() != at {
			t.Fatalf("the steps did not land: now=%v seq=%d", k.Now(), k.Seq())
		}
	}).ArmAt(at)
	k.RunUntil(wheelSpan / 4)
}

// TestCountMatchesArmFire holds Count against the arm/fire pairs it
// stands for. Twin kernels carry the same foreign timers, some of them
// due before the slots in question — which StepN would refuse to pass —
// and a chain of n slots whose firing does nothing but arm the next: one
// kernel arms and fires them, the other counts them from the event that
// would have armed the first. Wherever the chain has run out — the bound
// the caller owes Count — Now, Seq, Fired and Pending agree, and the
// foreign timers fire at the same times in the same order throughout.
func TestCountMatchesArmFire(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6)
		gap := Time(1 + rng.Intn(500))
		foreign := make([]Time, 1+rng.Intn(8))
		for i := range foreign {
			foreign[i] = 100 + Time(rng.Intn(int(gap)*(n+2)))
		}
		end := 100 + gap*Time(n+2)
		run := func(count bool) (order []string, state string) {
			k := NewKernel()
			for i, when := range foreign {
				i := i
				k.NewTimer(func() { order = append(order, fmt.Sprintf("%d@%d", i, k.Now())) }).ArmAt(when)
			}
			left := n
			var slot *Timer
			slot = k.NewTimer(func() {
				if left--; left > 0 {
					slot.ArmAfter(gap)
				}
			})
			k.NewTimer(func() {
				switch {
				case count:
					before := k.Now()
					k.Count(n, n)
					if k.Now() != before {
						t.Errorf("seed %d: Count moved the clock from %v to %v", seed, before, k.Now())
					}
				case n > 0:
					slot.ArmAfter(gap)
				}
			}).ArmAt(100)
			k.RunUntil(end)
			return order, fmt.Sprintf("now=%d seq=%d fired=%d pending=%d", k.Now(), k.Seq(), k.Fired(), k.Pending())
		}
		firedOrder, fired := run(false)
		countedOrder, counted := run(true)
		if fired != counted {
			t.Fatalf("seed %d: %d slots %v apart\n armed and fired: %s\n counted:         %s", seed, n, gap, fired, counted)
		}
		if fmt.Sprint(firedOrder) != fmt.Sprint(countedOrder) {
			t.Fatalf("seed %d: foreign timers fired differently\n armed and fired: %v\n counted:         %v", seed, firedOrder, countedOrder)
		}
	}
}

// TestCountPanicsAndAllocs: a negative count panics like StepN's, zero
// counts nothing, arms and firings are counted apart, and counting
// allocates nothing.
func TestCountPanicsAndAllocs(t *testing.T) {
	k := NewKernel()
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "negative count") {
				t.Errorf("Count(-1) recovered %q, want a panic naming the negative count", msg)
			}
		}()
		k.Count(1, -1)
	}()
	k.Count(0, 0)
	if k.Seq() != 0 || k.Fired() != 0 {
		t.Fatalf("Count(0, 0) counted: seq=%d fired=%d", k.Seq(), k.Fired())
	}
	if allocs := testing.AllocsPerRun(100, func() { k.Count(2, 3) }); allocs != 0 {
		t.Errorf("Count allocates: %.1f per call, want 0", allocs)
	}
	if k.Seq() != 2*101 || k.Fired() != 3*101 || k.Now() != 0 {
		t.Fatalf("after counting 101 times: now=%v seq=%d fired=%d", k.Now(), k.Seq(), k.Fired())
	}
}
