// Package sweep fans independent experiment points out across
// goroutines. Every table and figure sweep in this repository shares
// one shape: a small grid of points (frequencies, thread counts,
// payload sizes, placements), each of which owns its own sim.Kernel
// and machine — checked out through the run's core.Env, from a pool
// (reset and retuned) or built fresh, observationally identical either
// way — runs it, and reduces to one result value.
// Points share nothing mutable — only read-only spec tables and the
// mutex-guarded pool checkout — so they may run concurrently without
// changing any result.
//
// Map preserves that contract: results come back in point order, and
// the error returned is the lowest-indexed failure, exactly the one a
// serial loop would have hit first. Parallelism therefore changes
// wall-clock time only; outputs are byte-identical to a serial run.
// How wide a sweep fans out is the caller's to say (core.Env.Width,
// by way of harness.Config); the package holds no state.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Map runs worker over every point on up to width goroutines (below 1:
// GOMAXPROCS; 1: inline on the caller's) and returns the results in
// point order. Each point must be self-contained (own kernel, own
// machine) and may touch shared state only read-only. On failure Map
// returns the error of the lowest-indexed failing point — the same
// error a serial loop returns — with all results discarded.
func Map[P, R any](width int, points []P, worker func(i int, p P) (R, error)) ([]R, error) {
	return MapWarm(width, points,
		func() (struct{}, error) { return struct{}{}, nil },
		func(struct{}) {},
		func(i int, p P, _ struct{}) (R, error) { return worker(i, p) })
}

// MapWarm is Map with per-worker state: open builds a worker's state
// before its first point, every point the worker claims receives that
// state, and close releases it when the worker drains. Warm-start
// sweeps use the state to carry a machine plus a snapshot of the
// sweep's common prefix, so each point after a worker's first costs a
// restore instead of a build-and-re-run.
//
// The Map contract is unchanged: each point must compute the same
// result whichever worker (and therefore whichever warm state) it
// lands on. A serial run uses exactly one state. close is called for
// every state open returned, including on failure; an open error fails
// the sweep at the point that asked for the state. A point whose worker
// panics fails with an error carrying the panic value and its stack,
// on whichever goroutine it ran.
func MapWarm[P, R, S any](
	width int,
	points []P,
	open func() (S, error),
	close func(S),
	worker func(i int, p P, s S) (R, error),
) ([]R, error) {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	width = min(width, len(points))
	results := make([]R, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	// failed tracks the lowest failed index; points above it can no
	// longer influence the result (everything is discarded on error),
	// so unstarted ones are skipped. Workers take indices in ascending
	// order, so a skipped point is never below a running one and the
	// lowest-indexed-error contract is preserved.
	var failed atomic.Int64
	failed.Store(int64(len(points)))
	fail := func(i int) {
		for {
			cur := failed.Load()
			if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	}
	run := func(i int, s S) (r R, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("sweep point %d panicked: %v\n%s", i, p, debug.Stack())
			}
		}()
		return worker(i, points[i], s)
	}
	drain := func() {
		var s S
		opened := false
		defer func() {
			if opened {
				close(s)
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(points) || int64(i) > failed.Load() {
				return
			}
			if !opened {
				var err error
				if s, err = open(); err != nil {
					errs[i] = err
					fail(i)
					return
				}
				opened = true
			}
			results[i], errs[i] = run(i, s)
			if errs[i] != nil {
				fail(i)
			}
		}
	}
	if width <= 1 {
		drain()
	} else {
		var wg sync.WaitGroup
		wg.Add(width)
		for w := 0; w < width; w++ {
			go func() {
				defer wg.Done()
				drain()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
