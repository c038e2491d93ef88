package main

import (
	"math"
	"runtime"
	"time"

	"swallow/internal/core"
	"swallow/internal/experiments"
	"swallow/internal/sim"
	"swallow/internal/trace"
	"swallow/internal/workload"
)

// The layer probes: short direct calls into one layer each, run after
// the timed phase of a traced run. They give the cost of a layer's
// own operations where the timed phase only shows them folded into an
// op.

// setter records one metric value.
type setter func(name string, v float64)

// mallocs counts heap allocations made during fn. The count is the
// whole process's, so a background goroutine can add to it; callers
// that look for zero take the least of a few tries.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// probeTimer times the kernel's arm / fire / re-arm cycle on a bare
// kernel: the floor under every simulated event.
func probeTimer(set setter) {
	const fires = 1_000_000
	k := sim.NewKernel()
	n := 0
	var t *sim.Timer
	t = k.NewTimer(func() {
		if n++; n < fires {
			t.ArmAfter(8 * sim.Nanosecond)
		}
	})
	cycle := func() {
		n = 0
		t.ArmAfter(8 * sim.Nanosecond)
		k.Run()
	}
	cycle() // sizes the queues
	start := time.Now()
	allocs := mallocs(cycle)
	set("sim.timer_ns_per_fire", float64(time.Since(start).Nanoseconds())/fires)
	set("sim.timer_allocs_per_fire", float64(allocs)/fires)
}

// probeCore times the machine lifecycle on the workload's shape: a
// fresh build, a pool checkout, and rewinding a machine that has run.
func probeCore(set setter, sx, sy int) {
	var built *core.Machine
	set("core.build_ms_p50", medianDur(timeN(5, func() {
		built = core.MustNew(sx, sy, core.Options{})
	}), time.Millisecond))

	var release func()
	checkouts := timeN(50, func() {
		if release != nil {
			release()
		}
		_, release, _ = core.Checkout(sx, sy, core.Options{})
	})
	release()
	set("core.checkout_us_p50", medianDur(checkouts, time.Microsecond))
	ps := experiments.PoolStats()
	set("core.pool_reuse_ratio", float64(ps.Reuses)/float64(ps.Builds+ps.Reuses))

	// Each rewind follows a short run, so there is state to undo.
	prog := workload.HeavyLoad(4, 1<<20)
	dirty := func() {
		_ = built.LoadAll(prog)
		built.RunFor(5 * sim.Microsecond)
	}
	var resets, snaps, restores []time.Duration
	for i := 0; i < 20; i++ {
		dirty()
		resets = append(resets, timeN(1, built.Reset)...)
	}
	for i := 0; i < 20; i++ {
		dirty()
		var snap *core.Snapshot
		snaps = append(snaps, timeN(1, func() { snap = built.Snapshot() })...)
		built.RunFor(5 * sim.Microsecond)
		restores = append(restores, timeN(1, func() { built.Restore(snap) })...)
	}
	set("core.reset_us_p50", medianDur(resets, time.Microsecond))
	set("core.snapshot_us_p50", medianDur(snaps, time.Microsecond))
	set("core.restore_us_p50", medianDur(restores, time.Microsecond))
}

// probeRunAllocs counts allocations inside Machine.Run* on a loaded,
// warm machine; the steady state is meant to make none.
func probeRunAllocs(set setter, w *simWorkload, op simOp) {
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		w.m.Reset()
		_ = w.load(w.build(op))
		least = min(least, mallocs(func() { _ = w.run(w.m) }))
	}
	set("core.run_allocs_per_op", float64(least))
}

// probeRecorder runs the same op with and without the simulator's
// flight recorder attached and reports the difference per instruction.
func probeRecorder(set setter, w *simWorkload, op simOp) {
	timed := func(rec *trace.Recorder) float64 {
		var best float64
		for i := 0; i < 3; i++ {
			w.m.K.SetRecorder(rec)
			st, err := w.runOp(op, nil, -1)
			w.m.K.SetRecorder(nil)
			if err != nil {
				return 0
			}
			if ns := float64(st.runNs) / float64(st.instrs); best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	off := timed(nil)
	on := timed(trace.NewRecorder(1 << 16))
	set("trace.recorder_ns_per_instr_delta", on-off)
}
