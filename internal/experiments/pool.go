package experiments

import (
	"swallow/internal/core"
	"swallow/internal/xs1"
)

// The experiment inner loops churn through (kernel, machine) pairs:
// every sweep point owns its own simulation. With the build-once /
// reset-many lifecycle every point checks a machine out of the
// process-wide pool (core.Checkout), runs, and returns it; points that
// differ only in operating point (frequency sweeps, DVFS, link-rate
// experiments) reuse one build through Reset + Retune. Compiled
// scenario runners (internal/scenario) draw from the same pool, so
// hand-written and compiled sweeps amortise each other's builds.
//
// Pooling is a pure wall-clock/allocation optimisation: a pooled
// checkout is observationally identical to core.New, so every artifact
// renders byte-identical with pooling on or off (held by
// TestPooledMatchesFreshGolden). SetPooling(false) — the drivers'
// -pool=false — forces the fresh-build path for A/B measurement.

// SetPooling toggles machine reuse across experiment runs. Output is
// identical either way; off rebuilds every sweep point from scratch.
func SetPooling(on bool) { core.SetPooling(on) }

// Pooling reports whether checkouts reuse pooled machines.
func Pooling() bool { return core.PoolingEnabled() }

// SetWarmStart toggles snapshot-based warm starts: pooled machines
// rewind from a pristine snapshot instead of Reset, and boot-mode
// scenario sweeps restore a snapshotted boot prefix per point. Output
// is identical either way; off re-simulates every prefix.
func SetWarmStart(on bool) { core.SetWarmStart(on) }

// WarmStart reports whether warm starts are in effect.
func WarmStart() bool { return core.WarmStartEnabled() }

// SetTurbo toggles the execution fast path (predecoded instruction
// cache, batched run-to-horizon issue, cores pre-executing their own
// compute slots ahead of the kernel). Output is identical either
// way; off executes one instruction per kernel event, the pre-turbo
// loop (held by TestTurboMatchesSlowPathGolden).
func SetTurbo(on bool) { xs1.SetTurbo(on) }

// Turbo reports whether the execution fast path is in effect.
func Turbo() bool { return xs1.TurboEnabled() }

// TurboStats snapshots the process-wide fast-path counters.
func TurboStats() xs1.TurboStats { return xs1.ReadTurboStats() }

// SnapshotStats snapshots the process-wide snapshot/restore counters.
func SnapshotStats() core.SnapshotStats { return core.ReadSnapshotStats() }

// PoolStats snapshots the shared pool's traffic counters.
func PoolStats() core.PoolStats { return core.SharedPool().Stats() }

// DrainPool releases every idle pooled machine.
func DrainPool() { core.SharedPool().Drain() }

// checkout hands back a machine of the given shape plus a release
// function that returns it for reuse; see core.Checkout.
func checkout(slicesX, slicesY int, opts core.Options) (*core.Machine, func(), error) {
	return core.Checkout(slicesX, slicesY, opts)
}
