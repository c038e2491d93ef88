package experiments

import (
	"testing"

	"swallow/internal/core"
)

// TestPooledMatchesFreshGolden is the machine-lifecycle determinism
// contract: for every registered artifact, a run whose sweep points
// check machines out of a pool (reset + retune) must render
// byte-identical to a run that builds every machine fresh — on a cold
// pool (first use builds) and on a warm one (pure reuse, including
// reuse across artifacts that share a shape).
func TestPooledMatchesFreshGolden(t *testing.T) {
	// Parallel sweeps so concurrent checkouts exercise the pool's
	// locking alongside the determinism contract; a pool of the test's
	// own so that cold means cold and the reuse counted is this test's.
	pool := core.NewPool()
	pooled := core.Env{Pool: pool, Width: 8}
	// The first pooled pass populates the pool (and already reuses
	// across artifacts sharing a shape) while the fresh one runs beside
	// it; the second runs entirely on recycled machines.
	var out [2]map[string]string
	eachMode(t, []mode{{"fresh", core.Env{Width: 8}}, {"cold-pool", pooled}},
		func(t *testing.T, i int, env core.Env) { out[i] = renderRegistry(t, env) })
	sameRegistry(t, "fresh builds", out[0], "cold pool", out[1])
	sameRegistry(t, "fresh builds", out[0], "warm pool", renderRegistry(t, pooled))
	if st := pool.Stats(); st.Reuses == 0 {
		t.Errorf("pool recorded no reuse across two full registry passes: %+v", st)
	}
}
