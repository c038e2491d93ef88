package sweep

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestMapWarmSerial(t *testing.T) {
	var opens, closes atomic.Int64
	points := []int{1, 2, 3, 4, 5}
	got, err := MapWarm(1, points,
		func() (*atomic.Int64, error) { opens.Add(1); return &atomic.Int64{}, nil },
		func(s *atomic.Int64) { closes.Add(1) },
		func(i int, p int, s *atomic.Int64) (int, error) {
			return p * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if got[i] != p*10 {
			t.Fatalf("result[%d] = %d", i, got[i])
		}
	}
	if opens.Load() != 1 || closes.Load() != 1 {
		t.Fatalf("serial run opened %d states, closed %d; want 1/1", opens.Load(), closes.Load())
	}
}

func TestMapWarmParallelReusesState(t *testing.T) {
	var opens, closes atomic.Int64
	points := make([]int, 64)
	for i := range points {
		points[i] = i
	}
	got, err := MapWarm(4, points,
		func() (*atomic.Int64, error) { opens.Add(1); return &atomic.Int64{}, nil },
		func(s *atomic.Int64) { closes.Add(1) },
		func(i int, p int, s *atomic.Int64) (int, error) {
			s.Add(1) // exercise the state
			return p + 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if got[i] != i+1 {
			t.Fatalf("result[%d] = %d", i, got[i])
		}
	}
	if o := opens.Load(); o < 1 || o > 4 {
		t.Fatalf("opened %d states for 4 workers", o)
	}
	if opens.Load() != closes.Load() {
		t.Fatalf("opened %d states but closed %d", opens.Load(), closes.Load())
	}
}

func TestMapWarmLowestError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		boom := errors.New("boom")
		points := make([]int, 32)
		_, err := MapWarm(workers, points,
			func() (struct{}, error) { return struct{}{}, nil },
			func(struct{}) {},
			func(i int, p int, s struct{}) (int, error) {
				if i >= 7 {
					return 0, boom
				}
				return 0, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestMapWarmOpenErrorFails(t *testing.T) {
	boom := errors.New("no machine")
	var closes atomic.Int64
	_, err := MapWarm(3, []int{1, 2, 3},
		func() (struct{}, error) { return struct{}{}, boom },
		func(struct{}) { closes.Add(1) },
		func(i int, p int, s struct{}) (int, error) { return p, nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if closes.Load() != 0 {
		t.Fatalf("closed %d states that never opened", closes.Load())
	}
}
