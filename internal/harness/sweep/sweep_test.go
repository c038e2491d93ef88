package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := Map(workers, points, func(i, p int) (int, error) {
			if i != p {
				t.Errorf("worker index %d got point %d", i, p)
			}
			return p * p, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	points := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom3 := errors.New("boom at 3")
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, points, func(i, p int) (int, error) {
			if i >= 3 {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return p, nil
		})
		if err == nil || err.Error() != boom3.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom3)
		}
	}
}

// TestMapPanicIsThePointsError: a panicking point fails the sweep with
// an error naming it, its panic value and its stack, at any width,
// instead of killing the process from a goroutine no caller can
// recover; a plain error at a lower index still wins.
func TestMapPanicIsThePointsError(t *testing.T) {
	points := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, points, func(i, p int) (int, error) {
			if i == 5 {
				panic("melted core")
			}
			return p, nil
		})
		if err == nil || !strings.Contains(err.Error(), "sweep point 5 panicked: melted core") ||
			!strings.Contains(err.Error(), "sweep_test.go") {
			t.Fatalf("workers=%d: err = %v; want point 5's panic with its stack", workers, err)
		}
		boom2 := errors.New("boom at 2")
		_, err = Map(workers, points, func(i, p int) (int, error) {
			switch i {
			case 2:
				return 0, boom2
			case 5:
				panic("melted core")
			}
			return p, nil
		})
		if err != boom2 {
			t.Fatalf("workers=%d: err = %v; want the lower-indexed %v", workers, err, boom2)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	got, err := Map(0, nil, func(i int, p string) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: got %v, %v", got, err)
	}
	one, err := Map(0, []string{"x"}, func(i int, p string) (string, error) { return p + "!", nil })
	if err != nil || len(one) != 1 || one[0] != "x!" {
		t.Fatalf("single: got %v, %v", one, err)
	}
}

// peakResidency runs eight points at the given width, holding each
// until want of them are in flight at once, and returns the most that
// ever were. A width that fans out to fewer than want never returns.
func peakResidency(t *testing.T, width, want int) int64 {
	t.Helper()
	var inFlight, peak atomic.Int64
	var closed atomic.Bool
	gate := make(chan struct{})
	_, err := Map(width, make([]int, 8), func(i, _ int) (int, error) {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		if n == int64(want) && closed.CompareAndSwap(false, true) {
			close(gate) // every worker resident at once
		}
		<-gate
		inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak.Load()
}

func TestMapActuallyFansOut(t *testing.T) {
	if peak := peakResidency(t, 4, 4); peak != 4 {
		t.Fatalf("peak concurrent workers = %d, want 4", peak)
	}
}

// TestWidthBelowOneIsGOMAXPROCS pins the default: a width nobody chose
// fans out across the host's processors. (It sets GOMAXPROCS, so it
// does not run beside other tests.)
func TestWidthBelowOneIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, width := range []int{0, -1} {
		if peak := peakResidency(t, width, 3); peak != 3 {
			t.Fatalf("width %d on three processors: peak concurrent workers = %d, want 3", width, peak)
		}
	}
}

func TestMapSkipsDoomedPointsAfterFailure(t *testing.T) {
	// Every point fails, and a worker records its failure before
	// fetching another index — so with two workers at most points 0
	// and 1 ever run, the rest are skipped as doomed, and the error
	// surfaced is still the lowest-indexed one.
	var calls atomic.Int64
	_, err := Map(2, make([]int, 8), func(i, _ int) (int, error) {
		calls.Add(1)
		if i >= 2 {
			t.Errorf("point %d ran after earlier points failed", i)
		}
		return 0, fmt.Errorf("boom at %d", i)
	})
	if err == nil || err.Error() != "boom at 0" {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n < 1 || n > 2 {
		t.Fatalf("worker ran %d points, want 1 or 2", n)
	}
}
