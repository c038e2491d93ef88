// The one benchmark bench/ does not report: the turbo path against the
// exact pipeline it is held byte-identical to. Everything else —
// per-artifact and whole-registry wall time, pool, snapshot, recorder
// and scenario-compile costs — is a per-layer metric of `go run ./bench`
// (see BENCHMARK.json). Run with:
//
//	go test -run '^$' -bench Turbo -benchtime 20x .
package swallow

import (
	"testing"

	"swallow/internal/core"
	"swallow/internal/sim"
	"swallow/internal/workload"
)

// BenchmarkTurbo isolates the execution fast path: a 16-core slice
// running the paper's heavy-load mix, timed with the predecoded
// instruction cache + batched issue loop on and on an exact Env's
// one-instruction-per-event pipeline. ns/instr is the headline
// number; the on/off ratio is the fast path's gain with output held
// bit-identical.
func BenchmarkTurbo(b *testing.B) {
	prog := workload.HeavyLoad(4, 50_000_000) // never quiesces in-bench
	for _, mode := range []struct {
		name string
		env  core.Env
	}{{"on", core.Env{}}, {"off", core.Env{Exact: true}}} {
		b.Run(mode.name, func(b *testing.B) {
			m, release, err := mode.env.Checkout(1, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer release()
			if err := m.LoadAll(prog); err != nil {
				b.Fatal(err)
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
