package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// wait polls until the job reaches a terminal state.
func wait(t *testing.T, q *Queue, id string) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := q.Get(id); ok && (j.Status == StatusDone || j.Status == StatusFailed) {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

func TestLifecycleAndResult(t *testing.T) {
	q := New(2, 4, 16)
	defer q.Close()
	if err := q.Submit("a", "double", func() (any, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	j := wait(t, q, "a")
	if j.Status != StatusDone || j.Result != 42 || j.Err != "" {
		t.Fatalf("job = %+v", j)
	}
	if j.Label != "double" || j.Started.Before(j.Submitted) || j.Finished.Before(j.Started) {
		t.Fatalf("lifecycle stamps wrong: %+v", j)
	}

	if err := q.Submit("b", "fail", func() (any, error) { return nil, fmt.Errorf("boom") }); err != nil {
		t.Fatal(err)
	}
	if j = wait(t, q, "b"); j.Status != StatusFailed || j.Err != "boom" {
		t.Fatalf("failed job = %+v", j)
	}
}

func TestBackpressureWhenFull(t *testing.T) {
	q := New(1, 1, 16)
	gate := make(chan struct{})
	running := make(chan struct{})
	// Job 1 occupies the single worker.
	err := q.Submit("1", "block", func() (any, error) {
		close(running)
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	// Job 2 fills the single pending slot.
	if err := q.Submit("2", "pending", func() (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	// Job 3 must bounce, not block.
	if err := q.Submit("3", "reject", func() (any, error) { return nil, nil }); err != ErrFull {
		t.Fatalf("saturated Submit returned %v, want ErrFull", err)
	}
	if d := q.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	close(gate)
	wait(t, q, "1")
	wait(t, q, "2")
	q.Close()
}

func TestCloseDrainsAcceptedJobs(t *testing.T) {
	q := New(1, 4, 16)
	gate := make(chan struct{})
	running := make(chan struct{})
	q.Submit("1", "inflight", func() (any, error) {
		close(running)
		<-gate
		return "first", nil
	})
	<-running
	q.Submit("2", "queued", func() (any, error) { return "second", nil })

	closed := make(chan struct{})
	go func() {
		q.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a job still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-closed

	if j, _ := q.Get("1"); j.Status != StatusDone || j.Result != "first" {
		t.Fatalf("in-flight job not drained: %+v", j)
	}
	if j, _ := q.Get("2"); j.Status != StatusDone || j.Result != "second" {
		t.Fatalf("queued job not drained: %+v", j)
	}
	if err := q.Submit("3", "late", func() (any, error) { return nil, nil }); err != ErrClosed {
		t.Fatalf("post-Close Submit returned %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

// TestRoundRobinFairnessAcrossClasses: a burst of jobs in one class
// must not starve a later submission in another class. With a single
// worker held open, five "heavy" jobs are queued before one "cheap"
// job; under FIFO the cheap job would run last, under per-class
// round-robin it runs immediately after the first heavy job.
func TestRoundRobinFairnessAcrossClasses(t *testing.T) {
	q := New(1, 16, 16)
	defer q.Close()
	gate := make(chan struct{})
	running := make(chan struct{})
	err := q.Submit("blocker", "warmup", func() (any, error) {
		close(running)
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running // the worker is now held; everything below queues up

	var mu sync.Mutex
	var order []string
	record := func(label string) func() (any, error) {
		return func() (any, error) {
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			return nil, nil
		}
	}
	for i := 0; i < 5; i++ {
		if err := q.Submit(fmt.Sprint("heavy", i), "heavy", record("heavy")); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Submit("cheap", "cheap", record("cheap")); err != nil {
		t.Fatal(err)
	}
	close(gate)
	wait(t, q, "blocker")
	wait(t, q, "cheap")
	wait(t, q, "heavy4")

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("ran %d jobs, want 6 (%v)", len(order), order)
	}
	// The cheap job must complete within the first round-robin cycle
	// (position 0 or 1), not behind the whole heavy backlog.
	pos := -1
	for i, l := range order {
		if l == "cheap" {
			pos = i
		}
	}
	if pos > 1 {
		t.Fatalf("cheap job ran at position %d of %v; heavy class starved it", pos, order)
	}
	// FIFO holds within a class: all heavy jobs in submission order is
	// implied by them being identical; what matters is none was lost.
	heavies := 0
	for _, l := range order {
		if l == "heavy" {
			heavies++
		}
	}
	if heavies != 5 {
		t.Fatalf("heavy class lost jobs: %v", order)
	}
}

func TestRetentionForgetsOldestCompleted(t *testing.T) {
	q := New(1, 4, 2)
	var ids []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprint("r", i)
		if err := q.Submit(id, "r", func() (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		wait(t, q, id)
	}
	q.Close()
	for _, id := range ids[:2] {
		if _, ok := q.Get(id); ok {
			t.Errorf("job %s should have aged out (retain 2)", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := q.Get(id); !ok {
			t.Errorf("job %s should be retained", id)
		}
	}
}
