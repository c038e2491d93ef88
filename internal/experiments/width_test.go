package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"swallow/internal/core"
	"swallow/internal/energy"
	"swallow/internal/harness"
	"swallow/internal/sim"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// readBenchGolden loads one of the benchmark's committed reference files.
func readBenchGolden(t *testing.T, name string, into any) {
	t.Helper()
	blob, err := os.ReadFile("../../bench/golden/" + name)
	if err == nil {
		err = json.Unmarshal(blob, into)
	}
	if err != nil {
		t.Fatalf("bench/golden/%s: %v", name, err)
	}
}

// simComputeDigest runs one op of the benchmark's sim-compute workload —
// every core of a slice under the heavy load mix, threads threads each,
// for 200 us — and renders its simulated statistics as bench/sim.go's
// digest does.
func simComputeDigest(t *testing.T, threads int) string {
	return sliceDigest(t, 0, func(int) int { return threads })
}

// sliceDigest is simComputeDigest with threads(i) threads on core i and,
// if retune is not zero, core 5 on a clock of that many MHz.
func sliceDigest(t *testing.T, retune float64, threads func(i int) int) string {
	t.Helper()
	m, release, err := core.Checkout(1, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return machineDigest(t, m, retune, threads)
}

// machineDigest is sliceDigest on a machine of the caller's, Reset first
// as the benchmark resets its own before every op.
func machineDigest(t *testing.T, m *core.Machine, retune float64, threads func(i int) int) string {
	t.Helper()
	m.Reset()
	for i, c := range m.Cores() {
		if err := m.Load(c.Node(), workload.HeavyLoad(threads(i), 1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if retune != 0 {
		// The pool retunes every machine it hands out.
		if err := m.Cores()[5].SetFrequency(retune); err != nil {
			t.Fatal(err)
		}
	}
	m.RunFor(200 * sim.Microsecond)
	rep := m.Report()
	var tokens [energy.NumLinkClasses]uint64
	for class, ls := range m.Net.StatsByClass() {
		tokens[class] = ls.Tokens
	}
	return fmt.Sprintf("instrs=%d events=%d end_ps=%d core_j=%016x link_j=%016x tokens=%v",
		m.TotalInstrCount(), m.K.Fired(), int64(m.K.Now()),
		math.Float64bits(rep.ComputationJ+rep.BackgroundJ), math.Float64bits(rep.LinkJ), tokens)
}

// TestResetKeepsTheOperatingPoint: Reset rewinds a machine to the
// operating point last given to New or Retune, as the benchmark relies
// on when it resets its checkout before every op without retuning. A
// slice built at Fig. 3's lowest clock and retuned to 500 MHz runs a
// sim-compute op after a Reset to a committed digest.
func TestResetKeepsTheOperatingPoint(t *testing.T) {
	var sims map[string][]string
	readBenchGolden(t, "sim.seed1.json", &sims)
	slow := xs1.Config{FreqMHz: 71, VDD: 1.0}
	m := core.MustNew(1, 1, core.Options{Core: &slow})
	if err := m.Retune(core.Options{}.OperatingPoint()); err != nil {
		t.Fatal(err)
	}
	d := machineDigest(t, m, 0, func(int) int { return 4 })
	for _, g := range sims["sim-compute"] {
		if d == g {
			return
		}
	}
	t.Fatalf("sim-compute after build at 71 MHz, retune to 500 MHz and Reset is not in bench/golden/sim.seed1.json:\n  %s", d)
}

// TestHostThreadsNeverChangeAByte is the width half of the turbo
// contract: who pre-executes a window — the simulation goroutine or a
// helper on another host thread — changes nothing it contains, so the
// benchmark's committed digests of sim-compute and the committed hashes
// of three artifacts that load whole slices hold at GOMAXPROCS 1, 2 and
// 4 alike. Windows are offered to the pool at the wider settings and
// never at 1, or the three settings would have tested one thing. Slices
// the benchmark does not run — thread counts mixed, thin cores with one
// on another clock — are held to what one host thread makes of them.
// GOMAXPROCS is the one process-wide knob left, and the test turns it:
// it runs beside no other.
func TestHostThreadsNeverChangeAByte(t *testing.T) {
	var sims map[string][]string
	readBenchGolden(t, "sim.seed1.json", &sims)
	golden := make(map[string]bool)
	for _, d := range sims["sim-compute"] {
		golden[d] = true
	}
	var tables map[string]string
	readBenchGolden(t, "tables.json", &tables)

	offGolden := map[string]func() string{
		"one, two, four and eight threads": func() string { return sliceDigest(t, 0, func(i int) int { return 1 << (i % 4) }) },
		"one thread, a core at 400 MHz":    func() string { return sliceDigest(t, 400, func(int) int { return 1 }) },
		"two threads, a core at 400 MHz":   func() string { return sliceDigest(t, 400, func(int) int { return 2 }) },
	}
	alone := make(map[string]string)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(width)
		before := xs1.ReadTurboStats()
		for name, digest := range offGolden {
			d := digest()
			if width == 1 {
				alone[name] = d
			} else if d != alone[name] {
				t.Errorf("GOMAXPROCS=%d: %s:\n  %s\non one host thread:\n  %s", width, name, d, alone[name])
			}
		}
		seen := make(map[string]bool)
		for _, threads := range []int{1, 2, 4, 8} {
			d := simComputeDigest(t, threads)
			if !golden[d] {
				t.Errorf("GOMAXPROCS=%d: sim-compute with %d threads a core is not in bench/golden/sim.seed1.json:\n  %s", width, threads, d)
			}
			seen[d] = true
		}
		if len(seen) != len(golden) {
			t.Errorf("GOMAXPROCS=%d: the four thread counts gave %d distinct digests, the golden file holds %d", width, len(seen), len(golden))
		}
		for _, name := range []string{"fig2", "fig3", "adc"} {
			tbl, err := harness.Lookup(name).Table(harness.DefaultConfig())
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %s: %v", width, name, err)
			}
			sum := sha256.Sum256([]byte(tbl.String()))
			if got := hex.EncodeToString(sum[:]); got != tables[name] {
				t.Errorf("GOMAXPROCS=%d: %s renders to %s, bench/golden/tables.json has %s", width, name, got, tables[name])
			}
		}
		after := xs1.ReadTurboStats()
		fanouts, helped := after.Fanouts-before.Fanouts, after.HelpedWindows-before.HelpedWindows
		if (width > 1) != (fanouts > 0) {
			t.Errorf("GOMAXPROCS=%d: windows were offered to the helper pool %d times", width, fanouts)
		}
		if width == 1 && helped != 0 {
			t.Errorf("GOMAXPROCS=1: helpers pre-executed %d windows", helped)
		}
		t.Logf("GOMAXPROCS=%d: %d fan-outs, %d windows pre-executed by helpers", width, fanouts, helped)
	}
}
