package core

import "swallow/internal/trace"

// Env is how a run executes, as opposed to what it computes: where its
// machines come from, which reference path they take, how wide its
// sweeps fan out and whether a flight recorder rides along. It travels
// with the run — harness.Config carries it from Artifact.Run into
// every Checkout and sweep — so two runs in one process never share a
// mode, and every combination of fields renders the same bytes (the
// full-registry goldens in internal/experiments hold each field to
// that). Build one and hand it over; nothing may write to an Env once a
// run has it.
//
// The nil *Env is production: the shared pool, warm starts, the turbo
// path, GOMAXPROCS-wide sweeps, no recorder. The three oracle fields
// exist for tests to compare production against; no binary sets them.
type Env struct {
	// Pool is where Checkout draws machines and where release Resets
	// and parks them. Nil builds every checkout from scratch: the oracle
	// for Reset, which is Restore ≡ re-run of the empty prefix.
	Pool *Pool
	// Cold makes sweeps re-run their common prefixes rather than restore
	// a snapshot taken after them: the oracle for Restore ≡ re-run.
	Cold bool
	// Exact runs every core one instruction per kernel event
	// (xs1.Core.SetExact): the oracle for turbo ≡ step-by-step.
	Exact bool
	// Width caps the goroutines one sweep fans out across; below 1 means
	// GOMAXPROCS.
	Width int
	// Trace, when set, is filed a recording of every machine checked out.
	Trace *trace.Session
}

// What stays process-wide, on purpose: sharedPool is a cache of built
// machines, worth more the more runs share it; the cumulative counters
// (xs1.ReadTurboStats, ReadSnapshotStats) are what the process has done
// since it started, which is what /metrics and bench report; and xs1's
// helper goroutines are a resource sized by GOMAXPROCS, like the
// scheduler under them. None of them changes a rendered byte.
var sharedPool = NewPool()

// SharedPool returns the pool the nil Env draws from, for drivers that
// bound it (SetLimit), report its Stats, or build an Env around it.
func SharedPool() *Pool { return sharedPool }

// TracedEnv is the one way to record a run: serial sweeps, so machines
// check out in a fixed order, and a pool of its own that starts empty,
// so every machine's history — built, first parked, reused — is the
// run's own. The recording is then a function of the run alone,
// whatever else the process is doing beside it.
func TracedEnv(sess *trace.Session) *Env {
	return &Env{Pool: NewPool(), Width: 1, Trace: sess}
}

// value is e with the nil Env spelled out.
func (e *Env) value() Env {
	if e == nil {
		return Env{Pool: sharedPool}
	}
	return *e
}

// SweepWidth is the Width of e, 0 (GOMAXPROCS) for the nil Env.
func (e *Env) SweepWidth() int { return e.value().Width }

// WarmStart reports whether sweeps may restore a snapshotted common
// prefix instead of re-running it: true unless e is Cold.
func (e *Env) WarmStart() bool { return !e.value().Cold }

// Checkout is the nil Env's Checkout.
func Checkout(slicesX, slicesY int, opts Options) (*Machine, func(), error) {
	return (*Env)(nil).Checkout(slicesX, slicesY, opts)
}

// Checkout hands back a machine observationally identical to
// New(slicesX, slicesY, opts) plus a release function that parks it
// for reuse (or drops it, with no pool). Safe for concurrent sweep
// workers; each caller owns its machine until release. This is the
// flight recorder's single attachment seam: under a traced Env every
// machine — pooled, fresh, scenario or warm boot worker — carries a
// recorder from checkout to release; otherwise the kernel's recorder
// stays nil and the hot paths pay one branch.
func (e *Env) Checkout(slicesX, slicesY int, opts Options) (*Machine, func(), error) {
	env := e.value()
	var (
		m      *Machine
		err    error
		pooled int64
	)
	if env.Pool != nil {
		m, err = env.Pool.Get(slicesX, slicesY, opts)
		pooled = 1
	} else {
		m, err = New(slicesX, slicesY, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	m.setExact(env.Exact)
	rec := env.Trace.Attach()
	if rec != nil {
		m.K.SetRecorder(rec)
		rec.Emit(int64(m.K.Now()), trace.KindCheckout, trace.SrcMachine, pooled, 0)
	}
	return m, func() {
		rec.Emit(int64(m.K.Now()), trace.KindRelease, trace.SrcMachine, 0, 0)
		if env.Pool != nil {
			m.Reset()
		}
		// Detach only now that the park-time Reset is in the recording,
		// and strictly before the machine is published: once it is on
		// the idle list another worker may check it out, and that
		// worker's SetRecorder would race with ours.
		if rec != nil {
			m.K.SetRecorder(nil)
			env.Trace.Collect(rec)
		}
		if env.Pool != nil {
			env.Pool.park(m)
		}
	}, nil
}

// setExact puts every core of a rewound machine on the reference
// pipeline, or back on the turbo path.
func (m *Machine) setExact(on bool) {
	if m.exact == on {
		return
	}
	m.exact = on
	for _, c := range m.cores {
		c.SetExact(on)
	}
}
