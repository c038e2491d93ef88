// Package queue is the bounded job engine of the serving layer: a
// fixed worker pool draining a bounded pending set. Submit is
// non-blocking — a full queue is backpressure, surfaced by the API
// layer as 429 + Retry-After rather than unbounded queueing — and
// Close is a graceful drain: accepted jobs (queued and in-flight) all
// run to completion before Close returns.
//
// Jobs are opaque functions returning (any, error); the queue tracks
// their lifecycle (queued → running → done|failed) under the IDs their
// callers name them by. Completed jobs are retained up to a bounded
// history so pollers can fetch results after the fact without the job
// table growing forever.
//
// Scheduling is fair across job classes: pending jobs are kept in one
// FIFO per label (artifact name, submitted-scenario hash) and workers
// pop round-robin over the classes with work, FIFO within each class.
// A burst of heavy submitted scenarios therefore cannot starve cheap
// artifact renders — the next artifact job is at most one round-robin
// cycle away — while a single-class workload degrades to plain FIFO.
package queue

import (
	"errors"
	"sync"
	"time"
)

// Status is a job lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool { return s == StatusDone || s == StatusFailed }

// Job is a point-in-time snapshot of one submitted job.
type Job struct {
	ID     string
	Label  string
	Status Status
	// Result holds the job function's return value once Status is
	// done; Err its error message once failed.
	Result any
	Err    string
	// Submitted/Started/Finished stamp the lifecycle transitions.
	Submitted, Started, Finished time.Time
}

// job is the internal mutable record; q.mu guards every field except
// the immutables (id, label, fn).
type job struct {
	Job
	fn func() (any, error)
}

// Submission errors.
var (
	// ErrFull means the queue is at capacity; retry later.
	ErrFull = errors.New("queue: full")
	// ErrClosed means the queue no longer accepts jobs.
	ErrClosed = errors.New("queue: shutting down")
)

// Queue is a bounded job queue with a fixed worker pool and per-class
// round-robin scheduling. Build with New.
type Queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	jobs map[string]*job
	// pending is one FIFO per class label; ring lists the classes that
	// currently have pending jobs, in round-robin order starting at
	// rr. A class leaves the ring when its FIFO empties.
	pending map[string][]*job
	ring    []string
	rr      int

	done     []string // completed job IDs, oldest first, for retention
	retain   int
	capacity int
	queued   int
	running  int
	closed   bool

	wg sync.WaitGroup
}

// New starts a queue of capacity pending slots drained by workers
// goroutines. retain bounds how many completed jobs stay pollable
// (older ones are forgotten, oldest first); retain <= 0 keeps none.
func New(workers, capacity, retain int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{
		jobs:     make(map[string]*job),
		pending:  make(map[string][]*job),
		retain:   retain,
		capacity: capacity,
	}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// pop takes the next job under the fairness discipline: the first
// non-empty class at or after the round-robin cursor, oldest job
// first. Caller holds mu and has checked queued > 0.
func (q *Queue) pop() *job {
	if q.rr >= len(q.ring) {
		q.rr = 0
	}
	label := q.ring[q.rr]
	fifo := q.pending[label]
	j := fifo[0]
	fifo[0] = nil
	if len(fifo) == 1 {
		delete(q.pending, label)
		q.ring = append(q.ring[:q.rr], q.ring[q.rr+1:]...)
		// rr now indexes the next class already; wrap handled on entry.
	} else {
		q.pending[label] = fifo[1:]
		q.rr++
	}
	q.queued--
	return j
}

// worker drains the pending set until the queue is closed and empty.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for q.queued == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.queued == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		j := q.pop()
		q.running++
		j.Status = StatusRunning
		j.Started = time.Now()
		q.mu.Unlock()

		res, err := j.fn()

		q.mu.Lock()
		q.running--
		j.Finished = time.Now()
		if err != nil {
			j.Status = StatusFailed
			j.Err = err.Error()
		} else {
			j.Status = StatusDone
			j.Result = res
		}
		q.retire(j.ID)
		q.mu.Unlock()
	}
}

// retire files a completed job into the retention window, dropping the
// oldest completed jobs beyond it. Caller holds mu.
func (q *Queue) retire(id string) {
	q.done = append(q.done, id)
	for len(q.done) > q.retain {
		delete(q.jobs, q.done[0])
		q.done = q.done[1:]
	}
}

// Submit enqueues fn under id, which no other job of this queue may
// carry, in label's class. It never blocks: when the queue is at
// capacity it returns ErrFull (backpressure), and after Close it
// returns ErrClosed.
func (q *Queue) Submit(id, label string, fn func() (any, error)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.queued >= q.capacity {
		return ErrFull
	}
	j := &job{
		Job: Job{
			ID:        id,
			Label:     label,
			Status:    StatusQueued,
			Submitted: time.Now(),
		},
		fn: fn,
	}
	if _, ok := q.pending[label]; !ok {
		q.ring = append(q.ring, label)
	}
	q.pending[label] = append(q.pending[label], j)
	q.jobs[j.ID] = j
	q.queued++
	q.cond.Signal()
	return nil
}

// Get snapshots a job by ID.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.Job, true
}

// Depth reports jobs accepted but not yet finished (queued + running).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued + q.running
}

// Capacity reports the pending-slot bound.
func (q *Queue) Capacity() int { return q.capacity }

// Close stops accepting jobs and drains gracefully: every job already
// accepted — queued or running — completes before Close returns.
// Close is idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}
