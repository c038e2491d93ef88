package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.6g, want %.6g (+/- %.2g)", name, got, want, tol)
	}
}

func TestEq1Endpoints(t *testing.T) {
	// Paper: 193 mW at 500 MHz, 65 mW at 71 MHz under heavy load.
	approx(t, "Pc(500)", CorePowerActive(500), MaxCorePowerW, 0.004)
	approx(t, "Pc(71)", CorePowerActive(71), MinActiveCorePowerW, 0.003)
}

func TestIdleEndpoints(t *testing.T) {
	// Paper: 113 mW at 500 MHz, ~50 mW at 71 MHz when idle.
	approx(t, "Pidle(500)", CorePowerIdle(500), IdleCorePowerMaxW, 0.001)
	approx(t, "Pidle(71)", CorePowerIdle(71), IdleCorePowerMinW, 0.006)
}

func TestCorePowerThreadInterpolation(t *testing.T) {
	if got := corePower(500, 0); math.Abs(got-CorePowerIdle(500)) > 1e-12 {
		t.Errorf("corePower(500,0) = %v, want idle %v", got, CorePowerIdle(500))
	}
	if got := corePower(500, 4); math.Abs(got-CorePowerActive(500)) > 1e-12 {
		t.Errorf("corePower(500,4) = %v, want active %v", got, CorePowerActive(500))
	}
	// More than four threads does not raise power: the pipeline is full.
	if corePower(500, 8) != corePower(500, 4) {
		t.Error("power increased beyond 4 threads")
	}
	// Negative thread counts clamp.
	if corePower(500, -3) != corePower(500, 0) {
		t.Error("negative thread count not clamped")
	}
	// Monotone in threads.
	for n := 1; n <= 4; n++ {
		if corePower(500, n) <= corePower(500, n-1) {
			t.Errorf("power not increasing at %d threads", n)
		}
	}
}

func TestCorePowerMonotoneInFrequency(t *testing.T) {
	f := func(a, b uint8) bool {
		fa := 71 + float64(int(a)*430/256)
		fb := 71 + float64(int(b)*430/256)
		if fa > fb {
			fa, fb = fb, fa
		}
		return CorePowerActive(fa) <= CorePowerActive(fb) &&
			CorePowerIdle(fa) <= CorePowerIdle(fb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVMinAnchors(t *testing.T) {
	approx(t, "VMin(71)", VMin(71), 0.60, 1e-9)
	approx(t, "VMin(500)", VMin(500), 0.95, 1e-9)
	approx(t, "VMin(285.5)", VMin(285.5), 0.775, 1e-9)
	// Clamped outside range.
	if VMin(10) != 0.60 || VMin(600) != 0.95 {
		t.Error("VMin not clamped")
	}
}

func TestDVFSAlwaysSaves(t *testing.T) {
	for f := 71.0; f <= 500; f += 13 {
		at1V := CorePowerActive(f)
		scaled := CorePowerDVFS(f, 4)
		if scaled >= at1V {
			t.Errorf("DVFS at %v MHz: %v >= %v", f, scaled, at1V)
		}
	}
}

func TestDVFSFig4Endpoints(t *testing.T) {
	// Fig. 4 lower curve: ~180 mW at 500 MHz, ~35 mW at 71 MHz.
	approx(t, "DVFS(500)", CorePowerDVFS(500, 4), 0.179, 0.006)
	approx(t, "DVFS(71)", CorePowerDVFS(71, 4), 0.035, 0.004)
}

func TestScalePowerToVoltage(t *testing.T) {
	// At nominal voltage nothing changes.
	approx(t, "scale@1V", ScalePowerToVoltage(0.046, 0.15, 1.0), 0.196, 1e-12)
	// Dynamic part scales quadratically, static linearly.
	got := ScalePowerToVoltage(0.046, 0.15, 0.5)
	approx(t, "scale@0.5V", got, 0.046*0.5+0.15*0.25, 1e-12)
}

func TestInstrEnergyWindow(t *testing.T) {
	// Paper (erratum corrected): 1.0-2.25 nJ per instruction at 400 MHz, 1 V.
	for c := InstrClass(0); int(c) < NumInstrClasses; c++ {
		if c == ClassNop {
			continue
		}
		e := InstrEnergyTotal(c, 400, 1.0)
		if e < 0.9e-9 || e > 2.4e-9 {
			t.Errorf("InstrEnergyTotal(%v) = %.3g J, outside ~1.0-2.25 nJ window", c, e)
		}
	}
	lo := InstrEnergyTotal(ClassALU, 400, 1.0)
	hi := InstrEnergyTotal(ClassDiv, 400, 1.0)
	approx(t, "cheapest instr", lo, 1.0e-9, 0.35e-9)
	approx(t, "dearest instr", hi, 2.25e-9, 0.35e-9)
}

func TestPerBitComputeEnergy(t *testing.T) {
	// 31-70 pJ/bit window (erratum corrected from the paper's nJ).
	lo := PerBitComputeEnergy(InstrEnergyTotal(ClassALU, 400, 1.0))
	hi := PerBitComputeEnergy(InstrEnergyTotal(ClassDiv, 400, 1.0))
	if lo < 25e-12 || lo > 45e-12 {
		t.Errorf("low per-bit = %.3g, want ~31 pJ", lo)
	}
	if hi < 55e-12 || hi > 80e-12 {
		t.Errorf("high per-bit = %.3g, want ~70 pJ", hi)
	}
}

func TestInstrEnergyVoltageScaling(t *testing.T) {
	full := InstrEnergy(ClassALU, 1.0)
	half := InstrEnergy(ClassALU, 0.5)
	approx(t, "quadratic instr energy", half, full/4, 1e-15)
}

func TestInstrClassString(t *testing.T) {
	names := map[InstrClass]string{
		ClassALU: "alu", ClassMem: "mem", ClassMul: "mul", ClassDiv: "div",
		ClassBranch: "branch", ClassComm: "comm", ClassNop: "nop",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if InstrClass(99).String() == "" {
		t.Error("unknown class produced empty string")
	}
}

func TestTableILinkEnergies(t *testing.T) {
	// Table I's derived column, pJ/bit.
	cases := []struct {
		class LinkClass
		pj    float64
	}{
		{LinkOnChip, 5.6},
		{LinkBoardVertical, 212.8},
		{LinkBoardHorizontal, 201.6},
		{LinkOffBoard, 10880},
	}
	for _, c := range cases {
		got := LinkEnergyPerBit(c.class) * 1e12
		approx(t, "pJ/bit "+c.class.String(), got, c.pj, c.pj*0.001)
	}
}

func TestTableIOffBoardFactor(t *testing.T) {
	// "the energy cost per bit rises by a factor of 50" going off-board.
	onBoard := LinkEnergyPerBit(LinkBoardVertical)
	offBoard := LinkEnergyPerBit(LinkOffBoard)
	factor := offBoard / onBoard
	if factor < 45 || factor > 55 {
		t.Errorf("off-board factor = %.1f, want ~50", factor)
	}
}

func TestLinkClassString(t *testing.T) {
	if LinkOnChip.String() != "on-chip" {
		t.Errorf("LinkOnChip = %q", LinkOnChip.String())
	}
	if LinkOffBoard.String() != "off-board,30cm FFC" {
		t.Errorf("LinkOffBoard = %q", LinkOffBoard.String())
	}
	if LinkClass(99).String() == "" {
		t.Error("unknown link class produced empty string")
	}
}

func TestLinkProtocolTransitionClaim(t *testing.T) {
	// Worst-case communication energy is half a naive link's.
	if WireTransitionsPerByte*2 != NaiveSerialTransitionsPerByte {
		t.Error("transition counts do not support the factor-2 claim")
	}
}

func TestComputeVsCommunicationClaim(t *testing.T) {
	// Qualitative claim of Section II: moving a bit on-chip (5.6 pJ) is
	// cheap relative to computing on it (31-70 pJ/bit).
	onChip := LinkEnergyPerBit(LinkOnChip)
	compute := PerBitComputeEnergy(InstrEnergyTotal(ClassALU, 400, 1.0))
	if onChip >= compute {
		t.Errorf("on-chip movement %.3g not cheaper than compute %.3g", onChip, compute)
	}
}

func TestFig2Budget(t *testing.T) {
	b := PaperNodeBudget
	approx(t, "total", b.TotalW(), 0.260, 1e-9)
	fr := b.fractions()
	wants := [5]float64{0.30, 0.26, 0.22, 0.18, 0.04}
	for i, w := range wants {
		approx(t, "fraction "+componentNames[i], fr[i], w, 0.005)
	}
}

func TestFig2ZeroBudget(t *testing.T) {
	var b NodeBudget
	if b.fractions() != [5]float64{} {
		t.Error("zero budget fractions not zero")
	}
}

func TestSliceAndSystemPower(t *testing.T) {
	// 16 cores x 193 mW = 3.1 W/slice.
	approx(t, "slice core power", sliceCorePower(500), SlicePowerMaxW, 0.05)
	// 30-slice system: ~134 W (paper quotes 134 W for 4.5 W slices).
	approx(t, "system 30 slices", systemPower(30), 135, 2)
	if systemCores(30) != 480 {
		t.Errorf("systemCores(30) = %d, want 480", systemCores(30))
	}
}

func TestSystemGIPS(t *testing.T) {
	// "the system provides up to 240 GIPS" at 480 cores.
	approx(t, "GIPS", systemGIPS(30, 500), 240, 1e-9)
}

func TestConversionEfficiency(t *testing.T) {
	eff := conversionEfficiency()
	if eff < 0.6 || eff > 0.8 {
		t.Errorf("conversion efficiency = %.2f, want ~0.69 (18%% overhead claim)", eff)
	}
}

func TestBudgetConversionShareMatchesFig2(t *testing.T) {
	// Fig. 2 says ~18% of node power is DC-DC & I/O.
	fr := PaperNodeBudget.fractions()
	approx(t, "conversion share", fr[3], 0.18, 0.01)
}

// The paper's closed-form slice and system models below are what the
// tests above hold to its printed figures (Fig. 2's budget shares, the
// 3.1 W slice, the 134 W and 240 GIPS of 480 cores, Eq. 2's thread
// scaling); the simulator itself never evaluates them.

// fractions reports each component as a fraction of the total, in the
// order computation, static, network interface, conversion/IO, other.
func (b NodeBudget) fractions() [5]float64 {
	t := b.TotalW()
	if t == 0 {
		return [5]float64{}
	}
	return [5]float64{
		b.ComputationW / t,
		b.StaticW / t,
		b.NetworkInterfaceW / t,
		b.ConversionIOW / t,
		b.OtherW / t,
	}
}

// componentNames labels fractions entries, matching Fig. 2.
var componentNames = [5]string{
	"computation & memory ops",
	"static",
	"network interface",
	"DC-DC & I/O",
	"other",
}

// sliceCorePower returns the summed core power of one fully loaded slice
// at frequency f (Eq. 1 x 16).
func sliceCorePower(fMHz float64) float64 {
	return CoresPerSlice * CorePowerActive(fMHz)
}

// conversionEfficiency is the implied efficiency of the on-board
// supplies and support logic: 3.1 W of core load presents as ~4.5 W at
// the wall, i.e. ~18% of wall power is conversion/support overhead
// (Fig. 2's DC-DC & I/O wedge).
func conversionEfficiency() float64 {
	return SlicePowerMaxW / SliceWallPowerW
}

// systemPower returns the wall power of an n-slice machine under load.
// The paper: a complete 480-core, 30-slice system consumes only 134 W.
func systemPower(slices int) float64 {
	return float64(slices) * SliceWallPowerW
}

// systemCores returns the processor count of an n-slice machine.
func systemCores(slices int) int { return slices * CoresPerSlice }

// systemGIPS returns the aggregate instruction throughput in GIPS of an
// n-slice machine at frequency f with at least four active threads per
// core (Eq. 2's saturated regime).
func systemGIPS(slices int, fMHz float64) float64 {
	return float64(systemCores(slices)) * fMHz * 1e6 / 1e9
}

// CorePower interpolates between the idle and fully-loaded power models by
// the number of active threads. The XS1-L pipeline issues at most one
// instruction per cycle, and issue slots fill linearly up to four threads
// (Eq. 2), so dynamic power scales with min(4, active)/4.
func corePower(fMHz float64, activeThreads int) float64 {
	if activeThreads < 0 {
		activeThreads = 0
	}
	util := float64(min(4, activeThreads)) / 4
	idleDyn := IdleDynamicPerMHzW * fMHz
	activeDyn := DynamicPowerPerMHzW * fMHz
	return StaticPowerW + idleDyn + (activeDyn-idleDyn)*util
}
