// Benchmark harness: one generic benchmark per artifact registered in
// the internal/harness registry. Run with:
//
//	go test -bench=. -benchmem
//
// Each sub-benchmark regenerates its artifact through the registry,
// asserts nothing itself (the experiment tests do that), logs the
// rendered table (-v), and exports the artifact's headline quantities
// as benchmark metrics so shape comparisons appear directly in the
// bench output.
//
// BenchmarkSuite times one pass over the whole registry, serially and
// with the sweeps fanned out across GOMAXPROCS goroutines — the
// wall-clock ratio is the parallel harness's speedup on this machine.
package swallow

import (
	"encoding/json"
	"testing"

	"swallow/internal/core"
	"swallow/internal/experiments" // registers the artifacts; pooling toggle
	"swallow/internal/harness"
	"swallow/internal/harness/sweep"
	"swallow/internal/metrics"
	"swallow/internal/scenario"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/trace"
	"swallow/internal/workload"
)

// BenchmarkArtifacts regenerates every registered table and figure.
// Sweeps are pinned serial so per-artifact ns/op is comparable across
// machines and with historical baselines; BenchmarkSuite/par measures
// the parallel gain.
func BenchmarkArtifacts(b *testing.B) {
	prev := sweep.Concurrency()
	sweep.SetConcurrency(1)
	defer sweep.SetConcurrency(prev)
	cfg := harness.DefaultConfig()
	for _, a := range harness.Artifacts() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := a.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", a.Render(res))
					for _, m := range a.SortedMetrics(res) {
						b.ReportMetric(m.Value, m.Name)
					}
				}
			}
		})
	}
}

// runSuite regenerates every artifact once at the given sweep
// concurrency and machine-pooling setting.
func runSuite(b *testing.B, workers int, pooled bool) {
	b.Helper()
	prev := sweep.Concurrency()
	prevPool := experiments.Pooling()
	sweep.SetConcurrency(workers)
	experiments.SetPooling(pooled)
	defer func() {
		sweep.SetConcurrency(prev)
		experiments.SetPooling(prevPool)
	}()
	cfg := harness.QuickConfig()
	for i := 0; i < b.N; i++ {
		for _, a := range harness.Artifacts() {
			if _, err := a.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuite/seq and /par time the full registry pass (machine
// pool on, the default); their ratio is the sweep engine's wall-clock
// gain. par-fresh disables the pool, so par vs par-fresh is the
// build-once/reset-many gain on the same schedule.
func BenchmarkSuite(b *testing.B) {
	b.Run("seq", func(b *testing.B) { runSuite(b, 1, true) })
	b.Run("par", func(b *testing.B) { runSuite(b, 0, true) }) // 0 -> GOMAXPROCS
	b.Run("par-fresh", func(b *testing.B) { runSuite(b, 0, false) })
}

// BenchmarkMachinePool isolates the lifecycle cost the pool removes:
// fresh builds a 16-core slice machine per iteration and runs a short
// workload on it; pooled checks one out (reset + retune), runs the
// same workload, and returns it.
func BenchmarkMachinePool(b *testing.B) {
	prog := workload.BusyLoop(2, 200)
	node := topo.MakeNodeID(0, 0, topo.LayerV)
	exercise := func(b *testing.B, m *core.Machine) {
		b.Helper()
		if err := m.Load(node, prog); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := core.New(1, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			exercise(b, m)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := core.NewPool()
		for i := 0; i < b.N; i++ {
			m, err := pool.Get(1, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			exercise(b, m)
			pool.Put(m)
		}
	})
}

// BenchmarkSnapshotRestore isolates the warm-start primitive: restore
// rewinds a loaded, busy machine to a snapshot taken after a common
// prefix; reset-rerun pays the honest alternative — Reset, reload and
// re-simulate the same prefix. Their ratio is the per-point saving a
// warm-started sweep banks on top of pooling. boot-sweep-warm and
// boot-sweep-cold lift the same comparison to a whole registered
// artifact whose sweep points share a network-boot prefix.
func BenchmarkSnapshotRestore(b *testing.B) {
	const prefix = 200 * sim.Microsecond
	prog := workload.BusyLoop(4, 1_000_000)
	b.Run("restore", func(b *testing.B) {
		m, err := core.New(1, 1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		m.RunFor(prefix)
		snap := m.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Restore(snap)
		}
	})
	b.Run("reset-rerun", func(b *testing.B) {
		m, err := core.New(1, 1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			if err := m.LoadAll(prog); err != nil {
				b.Fatal(err)
			}
			m.RunFor(prefix)
		}
	})
	var bootSweep *harness.Artifact
	for _, a := range harness.Artifacts() {
		if a.Name == "boot-sweep" {
			bootSweep = a
			break
		}
	}
	if bootSweep == nil {
		b.Fatal("boot-sweep artifact not registered")
	}
	cfg := harness.QuickConfig()
	prevWarm := experiments.WarmStart()
	defer experiments.SetWarmStart(prevWarm)
	for _, mode := range []struct {
		name string
		warm bool
	}{{"boot-sweep-warm", true}, {"boot-sweep-cold", false}} {
		b.Run(mode.name, func(b *testing.B) {
			experiments.SetWarmStart(mode.warm)
			for i := 0; i < b.N; i++ {
				if _, err := bootSweep.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTurbo isolates the execution fast path: a 16-core slice
// running the paper's heavy-load mix, timed with the predecoded
// instruction cache + batched issue loop on and with the
// one-instruction-per-event slow path. ns/instr is the headline
// number; the on/off ratio is the fast path's gain with output held
// bit-identical.
func BenchmarkTurbo(b *testing.B) {
	prevTurbo := experiments.Turbo()
	defer experiments.SetTurbo(prevTurbo)
	prog := workload.HeavyLoad(4, 50_000_000) // never quiesces in-bench
	for _, mode := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			experiments.SetTurbo(mode.on)
			m, err := core.New(1, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				b.Fatal(err)
			}
			countInstrs := func() uint64 {
				var n uint64
				for _, c := range m.Cores() {
					n += c.InstrCount
				}
				return n
			}
			m.RunFor(10 * sim.Microsecond) // warm caches and queues
			start := countInstrs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RunFor(100 * sim.Microsecond)
			}
			b.StopTimer()
			if n := countInstrs() - start; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
			}
		})
	}
}

// BenchmarkTraceOverhead prices the flight recorder against the same
// workload BenchmarkTurbo times: a 16-core slice under heavy load,
// once with no recorder attached (the production default — one nil
// check per hook) and once with a recorder capturing into its ring.
// BENCH_trace.json tracks both; nil must stay within noise of
// BenchmarkTurbo/on, and the attached column bounds what a traced run
// costs.
func BenchmarkTraceOverhead(b *testing.B) {
	prog := workload.HeavyLoad(4, 50_000_000) // never quiesces in-bench
	for _, mode := range []struct {
		name     string
		attached bool
	}{{"nil", false}, {"attached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m, err := core.New(1, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				b.Fatal(err)
			}
			if mode.attached {
				// Big enough that ring wrap, not allocation, absorbs
				// the event stream.
				m.K.SetRecorder(trace.NewRecorder(1 << 16))
			}
			m.RunFor(10 * sim.Microsecond) // warm caches and queues
			start := m.TotalInstrCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RunFor(100 * sim.Microsecond)
			}
			b.StopTimer()
			if n := m.TotalInstrCount() - start; n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/instr")
			}
		})
	}
}

// BenchmarkScenarioCompile times the declarative layer's fixed
// overhead: parsing a canonical spec from JSON, validating it,
// deriving its content hash and lowering it to an artifact — the
// per-submission cost POST /scenarios pays before any simulation.
func BenchmarkScenarioCompile(b *testing.B) {
	spec := experiments.GoodputScenario()
	blob, err := json.Marshal(spec.Canonical())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := scenario.Parse(blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := scenario.Compile(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq2Analytic exercises the pure Eq. 2 law (no simulation) as
// a nanosecond-scale baseline for the harness itself.
func BenchmarkEq2Analytic(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += metrics.IPSCore(500e6, i%9)
	}
	_ = acc
}
