package experiments

import "swallow/internal/core"

// The experiment inner loops churn through (kernel, machine) pairs:
// every sweep point owns its own simulation, checked out through the
// run's core.Env. In production (the nil Env) that is the process-wide
// shared pool: points that differ only in operating point (frequency
// sweeps, DVFS, link-rate experiments) reuse one build through Reset +
// Retune, and compiled scenario runners (internal/scenario) draw from
// the same pool, so hand-written and compiled sweeps amortise each
// other's builds. Pooling is a pure wall-clock/allocation optimisation:
// every artifact renders byte-identical from a pool or from fresh
// builds (held by TestPooledMatchesFreshGolden).

// PoolStats snapshots the shared pool's traffic counters.
func PoolStats() core.PoolStats { return core.SharedPool().Stats() }

// DrainPool releases every idle machine of the shared pool.
func DrainPool() { core.SharedPool().Drain() }
