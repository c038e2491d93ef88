package energy

// NodeBudget is the Fig. 2 decomposition of per-node power: where each
// node's share of the wall power goes when the system is under load at
// 500 MHz. The paper's slice draws ~4.5 W for 16 processors, which it
// rounds to 260 mW per node.
type NodeBudget struct {
	// ComputationW is power spent performing computation and memory
	// operations (78 mW, 30%).
	ComputationW float64
	// StaticW is non-computational static and dynamic leakage
	// (68 mW, 26%).
	StaticW float64
	// NetworkInterfaceW is the switch and link interfacing (58 mW, 22%).
	NetworkInterfaceW float64
	// ConversionIOW is DC-DC conversion loss plus I/O (46 mW, 18%).
	ConversionIOW float64
	// OtherW is everything else (10 mW, ~4%).
	OtherW float64
}

// PaperNodeBudget is the published Fig. 2 breakdown.
var PaperNodeBudget = NodeBudget{
	ComputationW:      0.078,
	StaticW:           0.068,
	NetworkInterfaceW: 0.058,
	ConversionIOW:     0.046,
	OtherW:            0.010,
}

// TotalW sums the budget components (260 mW for the published figures).
func (b NodeBudget) TotalW() float64 {
	return b.ComputationW + b.StaticW + b.NetworkInterfaceW + b.ConversionIOW + b.OtherW
}

// Slice- and system-level constants from Sections III-A and IV-B.
const (
	// CoresPerSlice is the number of processors on one Swallow board.
	CoresPerSlice = 16
	// ChipsPerSlice is the number of dual-core packages per board.
	ChipsPerSlice = 8
	// MaxSlices is the manufactured board count.
	MaxSlices = 40
	// LargestTestedSlices is the largest machine built and tested
	// (30 slices = 480 cores; edge-connector yield limited).
	LargestTestedSlices = 30
	// SlicePowerMaxW is the maximum per-slice core power (16 x 193 mW
	// = 3.1 W).
	SlicePowerMaxW = 3.1
	// SliceWallPowerW includes supply losses and support logic (4.5 W).
	SliceWallPowerW = 4.5
	// SliceSupplyVoltage is the main input rail of a slice.
	SliceSupplyVoltage = 12.0
	// SliceOperatingPowerBudgetW is the board's rated envelope (5 W).
	SliceOperatingPowerBudgetW = 5.0
)
