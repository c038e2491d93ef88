// Package energy implements the Swallow energy and power models.
//
// Everything here is calibrated against the measurements published in the
// paper (Hollis & Kerrison, DATE 2016):
//
//   - Eq. 1: per-core power under load Pc(f) = 46 + 0.30 f  [mW, f in MHz]
//   - Fig. 2: the 260 mW per-node budget split
//   - Fig. 4: DVFS model P = C V^2 f with Vmin(f) interpolated between
//     (71 MHz, 0.6 V) and (500 MHz, 0.95 V)
//   - Table I: per-bit link energies by link class
//   - Section II: per-instruction energy of 1.0-2.25 nJ at 400 MHz
//     (the paper prints uJ/nJ; see the erratum note in DESIGN.md).
//
// Powers are expressed in watts and energies in joules throughout; the
// mW/pJ helper accessors exist because the paper quotes those units.
package energy

import "fmt"

// Model constants from the paper, SI units unless suffixed.
const (
	// StaticPowerW is the per-core static power (Eq. 1 intercept, 46 mW).
	StaticPowerW = 0.046
	// DynamicPowerPerMHzW is the per-core active dynamic slope
	// (Eq. 1: 0.30 mW/MHz).
	DynamicPowerPerMHzW = 0.30e-3
	// IdleDynamicPerMHzW is the idle dynamic slope fitted to the paper's
	// idle quotes (113 mW at 500 MHz, ~50 mW at 71 MHz).
	IdleDynamicPerMHzW = 0.134e-3

	// NominalVDD is the core supply voltage of the built system (1 V).
	NominalVDD = 1.0
	// IOVDD is the I/O and support-logic rail (3.3 V).
	IOVDD = 3.3

	// MaxCoreFreqMHz is the maximum XS1-L core clock.
	MaxCoreFreqMHz = 500.0
	// MinCoreFreqMHz is the lowest frequency-scaled clock the paper uses.
	MinCoreFreqMHz = 71.0

	// VMinLowV / VMinHighV anchor the experimentally determined minimum
	// supply voltage: 0.6 V at 71 MHz and 0.95 V at 500 MHz.
	VMinLowV  = 0.60
	VMinHighV = 0.95

	// MaxCorePowerW is the measured per-core maximum (193 mW at 500 MHz
	// with four active threads).
	MaxCorePowerW = 0.193
	// MinActiveCorePowerW is the loaded power at 71 MHz (65 mW).
	MinActiveCorePowerW = 0.065
	// IdleCorePowerMaxW is the all-idle power at 500 MHz (113 mW).
	IdleCorePowerMaxW = 0.113
	// IdleCorePowerMinW is the all-idle power at 71 MHz (~50 mW).
	IdleCorePowerMinW = 0.050
)

// CorePowerActive returns Eq. 1: the power of one core running a heavy
// (four active thread) load at frequency f MHz and nominal 1 V.
func CorePowerActive(fMHz float64) float64 {
	return StaticPowerW + DynamicPowerPerMHzW*fMHz
}

// CorePowerIdle returns the power of one core with zero active threads at
// frequency f MHz (clock still toggling; threads paused).
func CorePowerIdle(fMHz float64) float64 {
	return StaticPowerW + IdleDynamicPerMHzW*fMHz
}

// VMin returns the experimentally determined minimum supply voltage at
// frequency f MHz, linearly interpolated between the two anchor points
// and clamped outside them.
func VMin(fMHz float64) float64 {
	switch {
	case fMHz <= MinCoreFreqMHz:
		return VMinLowV
	case fMHz >= MaxCoreFreqMHz:
		return VMinHighV
	}
	frac := (fMHz - MinCoreFreqMHz) / (MaxCoreFreqMHz - MinCoreFreqMHz)
	return VMinLowV + frac*(VMinHighV-VMinLowV)
}

// ScalePowerToVoltage rescales a power figure measured at 1 V to supply
// voltage v: dynamic power follows P = C V^2 f, and leakage is modelled as
// proportional to V over the 0.6-1.0 V range.
func ScalePowerToVoltage(staticW, dynamicW, v float64) float64 {
	return staticW*(v/NominalVDD) + dynamicW*(v/NominalVDD)*(v/NominalVDD)
}

// CorePowerDVFS returns the per-core power at frequency f after scaling
// the supply down to VMin(f), reproducing the lower curve of Fig. 4.
func CorePowerDVFS(fMHz float64, activeThreads int) float64 {
	util := float64(min(4, activeThreads)) / 4
	idleDyn := IdleDynamicPerMHzW * fMHz
	dyn := idleDyn + (DynamicPowerPerMHzW*fMHz-idleDyn)*util
	return ScalePowerToVoltage(StaticPowerW, dyn, VMin(fMHz))
}

// InstrClass categorises instructions by their measured energy cost.
// Kerrison et al. profiled the XS1-L ISA and found per-instruction
// energies in the 1.0-2.25 nJ range at 400 MHz, 1 V, dependent on the
// operation performed (memory and multiply operations toggle more logic
// than register moves).
type InstrClass int

const (
	// ClassALU covers register-to-register arithmetic and logic.
	ClassALU InstrClass = iota
	// ClassMem covers loads and stores against the single-cycle SRAM.
	ClassMem
	// ClassMul covers the multiplier datapath.
	ClassMul
	// ClassDiv covers the iterative divider.
	ClassDiv
	// ClassBranch covers control transfers.
	ClassBranch
	// ClassComm covers resource (channel/timer) instructions.
	ClassComm
	// ClassNop covers issue slots that do no useful work.
	ClassNop

	numInstrClasses
)

// String names the class.
func (c InstrClass) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMem:
		return "mem"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassBranch:
		return "branch"
	case ClassComm:
		return "comm"
	case ClassNop:
		return "nop"
	}
	return fmt.Sprintf("InstrClass(%d)", int(c))
}

// NumInstrClasses is the number of distinct instruction energy classes.
const NumInstrClasses = int(numInstrClasses)

// instrEnergyIncremental is the incremental (above idle) switching
// energy per instruction in joules at 1 V. Two published constraints
// calibrate the values:
//
//  1. Eq. 1's slope: at full issue (500 MIPS, 500 MHz) a typical heavy
//     mix must add (0.30-0.134) mW/MHz x 500 MHz = 83 mW over idle,
//     i.e. ~0.17 nJ/instruction averaged over a realistic mix.
//  2. The Section II per-instruction window: billed alongside the
//     static+idle share of a 4-cycle issue slot at 400 MHz (~1.0 nJ),
//     totals must span ~1.0-2.25 nJ depending on the operation.
var instrEnergyIncremental = [NumInstrClasses]float64{
	ClassALU:    0.10e-9,
	ClassMem:    0.22e-9,
	ClassMul:    0.45e-9,
	ClassDiv:    1.25e-9,
	ClassBranch: 0.12e-9,
	ClassComm:   0.20e-9,
	ClassNop:    0.02e-9,
}

// InstrEnergy returns the incremental dynamic energy of one instruction
// of class c executed at voltage v. Switching energy is frequency
// independent per event (E = C V^2), so only voltage rescales it.
func InstrEnergy(c InstrClass, v float64) float64 {
	return instrEnergyIncremental[c] * (v / NominalVDD) * (v / NominalVDD)
}

// InstrEnergyTotal returns the "as billed" energy of one instruction
// issued in isolation at frequency f: incremental switching energy plus
// the static+idle power burned during its 4-cycle pipeline slot. This is
// the quantity comparable to the paper's 1.0-2.25 nJ window (at 400 MHz).
func InstrEnergyTotal(c InstrClass, fMHz, v float64) float64 {
	slotSeconds := 4.0 / (fMHz * 1e6)
	background := ScalePowerToVoltage(StaticPowerW, IdleDynamicPerMHzW*fMHz, v)
	return InstrEnergy(c, v) + background*slotSeconds
}

// PerBitComputeEnergy converts a per-instruction energy to the paper's
// "energy per bit operated upon" metric, assuming 32-bit operands.
func PerBitComputeEnergy(instrEnergy float64) float64 {
	return instrEnergy / 32
}

// LinkClass identifies one of the four physical link classes of Table I.
type LinkClass int

const (
	// LinkOnChip is a package-internal (core-to-core) link.
	LinkOnChip LinkClass = iota
	// LinkBoardVertical is an on-board inter-package link in the vertical
	// routing layer.
	LinkBoardVertical
	// LinkBoardHorizontal is an on-board inter-package link in the
	// horizontal routing layer.
	LinkBoardHorizontal
	// LinkOffBoard is a 30 cm FFC cable between slices.
	LinkOffBoard

	numLinkClasses
)

// NumLinkClasses is the number of physical link classes.
const NumLinkClasses = int(numLinkClasses)

// String names the link class as Table I does.
func (l LinkClass) String() string {
	switch l {
	case LinkOnChip:
		return "on-chip"
	case LinkBoardVertical:
		return "on-board,vertical"
	case LinkBoardHorizontal:
		return "on-board,horizontal"
	case LinkOffBoard:
		return "off-board,30cm FFC"
	}
	return fmt.Sprintf("LinkClass(%d)", int(l))
}

// LinkSpec holds the Table I characterisation of one link class.
type LinkSpec struct {
	Class LinkClass
	// DataRateBitsPerSec is the operating data rate of the link.
	DataRateBitsPerSec float64
	// MaxPowerW is the link power at full utilisation.
	MaxPowerW float64
}

// EnergyPerBit returns joules per bit at full utilisation
// (Table I's final column).
func (s LinkSpec) EnergyPerBit() float64 {
	return s.MaxPowerW / s.DataRateBitsPerSec
}

// LinkSpecs reproduces Table I.
var LinkSpecs = [NumLinkClasses]LinkSpec{
	LinkOnChip:          {LinkOnChip, 250e6, 1.4e-3},
	LinkBoardVertical:   {LinkBoardVertical, 62.5e6, 13.3e-3},
	LinkBoardHorizontal: {LinkBoardHorizontal, 62.5e6, 12.6e-3},
	LinkOffBoard:        {LinkOffBoard, 62.5e6, 680e-3},
}

// LinkEnergyPerBit is a convenience accessor for Table I's derived column.
func LinkEnergyPerBit(c LinkClass) float64 { return LinkSpecs[c].EnergyPerBit() }

// WireTransitionsPerByte is the property of the five-wire link protocol
// the paper credits for the low link energy: only four wire transitions
// are needed per byte of data, half the worst case of a naive serial or
// parallel link.
const WireTransitionsPerByte = 4

// NaiveSerialTransitionsPerByte is the worst case transition count of a
// naive serial/parallel link used for the paper's factor-of-two claim.
const NaiveSerialTransitionsPerByte = 8
