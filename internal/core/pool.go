package core

import "sync"

// Pool reuses built machines across runs. Machine construction —
// cores, SRAM, fabric, power tree, thousands of allocations — is the
// dominant per-point cost of a sweep now that the steady-state
// simulation is allocation-free; the Pool amortises one build across
// any number of points by keying idle machines on their structural
// shape (grid plus the non-operating-point half of Options), resetting
// them as they are parked and retuning them as they are handed back.
//
// The contract: Get returns a machine observationally identical to
// New(slicesX, slicesY, opts) — byte-identical simulation output —
// whether it was built fresh or recycled. Put returns a machine for
// reuse; a machine must be Put at most once per Get and never used
// after. Pool is safe for concurrent use (sweep workers check out in
// parallel); each checked-out machine belongs to exactly one caller.
type Pool struct {
	mu   sync.Mutex
	idle map[shape][]*Machine
	// fifo orders every idle machine oldest-return first, across
	// shapes, so byte-budget eviction has a deterministic victim.
	fifo      []*Machine
	maxBytes  int64
	idleBytes int64
	stats     PoolStats
}

// PoolStats counts pool traffic: Reuses is the builds avoided.
type PoolStats struct {
	// Builds counts Gets that constructed a fresh machine.
	Builds int64
	// Reuses counts Gets served by recycling an idle machine.
	Reuses int64
	// Returns counts Puts.
	Returns int64
	// Evictions counts idle machines released by the SetLimit bound.
	Evictions int64
	// Idle is the machines currently parked, across all shapes.
	Idle int
	// IdleBytes is the estimated footprint of the parked machines.
	IdleBytes int64
}

// NewPool builds an empty pool with no idle bound.
func NewPool() *Pool {
	return &Pool{idle: make(map[shape][]*Machine)}
}

// SetLimit bounds the idle side of the pool: maxBytes caps the
// estimated total idle footprint (Machine.Footprint) across shapes.
// Zero or negative means unbounded (the default). When a Put pushes the
// pool over the bound, the oldest-returned idle machines are released
// for the GC — one render on a large grid can no longer park tens of
// megabytes of simulated SRAM in a long-lived server forever.
// Checked-out machines are never touched.
func (p *Pool) SetLimit(maxBytes int64) {
	p.mu.Lock()
	p.maxBytes = maxBytes
	p.enforce()
	p.mu.Unlock()
}

// Get checks out a machine equivalent to New(slicesX, slicesY, opts):
// an idle machine of the same shape reset and retuned to the options'
// operating point, or a fresh build when none is parked. The caller
// owns the machine until Put.
func (p *Pool) Get(slicesX, slicesY int, opts Options) (*Machine, error) {
	// Validate the operating point up front so pooled and fresh paths
	// reject bad options identically, before any state changes hands.
	op := opts.OperatingPoint()
	if err := op.Core.Validate(); err != nil {
		return nil, err
	}
	key := shapeOf(slicesX, slicesY, opts)
	var m *Machine
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		m = list[len(list)-1]
		list[len(list)-1] = nil
		p.idle[key] = list[:len(list)-1]
		p.unfile(m)
		p.stats.Reuses++
	} else {
		p.stats.Builds++
	}
	p.mu.Unlock()
	if m == nil {
		return New(slicesX, slicesY, opts)
	}
	if err := m.Retune(op); err != nil {
		// Unreachable after the upfront validation, but never leak the
		// checkout on the error path.
		p.Put(m)
		return nil, err
	}
	return m, nil
}

// Put parks a machine for reuse. The machine is Reset immediately —
// copying back only the SRAM pages its run dirtied — so idle machines
// hold no run state (programs, traces, wake callbacks) and a later Get
// only retunes.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	m.Reset()
	m.K.SetRecorder(nil)
	p.park(m)
}

// park publishes a rewound machine on the idle list.
func (p *Pool) park(m *Machine) {
	p.mu.Lock()
	p.idle[m.shape] = append(p.idle[m.shape], m)
	p.fifo = append(p.fifo, m)
	p.idleBytes += m.Footprint()
	p.stats.Returns++
	p.enforce()
	p.mu.Unlock()
}

// unfile removes a no-longer-idle machine from the eviction FIFO and
// the byte accounting. Caller holds mu.
func (p *Pool) unfile(m *Machine) {
	for i, f := range p.fifo {
		if f == m {
			p.fifo = append(p.fifo[:i], p.fifo[i+1:]...)
			break
		}
	}
	p.idleBytes -= m.Footprint()
}

// enforce evicts oldest-returned idle machines until the byte bound
// holds. Caller holds mu.
func (p *Pool) enforce() {
	for p.maxBytes > 0 && p.idleBytes > p.maxBytes && len(p.fifo) > 0 {
		victim := p.fifo[0]
		list := p.idle[victim.shape]
		for i, idle := range list {
			if idle == victim {
				p.idle[victim.shape] = append(list[:i], list[i+1:]...)
				break
			}
		}
		p.unfile(victim)
		p.stats.Evictions++
	}
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	for _, list := range p.idle {
		s.Idle += len(list)
	}
	s.IdleBytes = p.idleBytes
	return s
}

// Drain releases every idle machine (large grids hold megabytes of
// simulated SRAM); checked-out machines are unaffected.
func (p *Pool) Drain() {
	p.mu.Lock()
	p.idle = make(map[shape][]*Machine)
	p.fifo = nil
	p.idleBytes = 0
	p.mu.Unlock()
}
