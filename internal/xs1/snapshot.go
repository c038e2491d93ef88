package xs1

import (
	"swallow/internal/energy"
	"swallow/internal/sim"
)

// SRAM dirty tracking: the 64 KiB bank is divided into 4 KiB pages,
// each stamped with the core's write generation on every store. The
// generation advances on every touch, so a page's stamp changes
// whenever its content may have — which is what lets the predecoded
// instruction cache (window.go) validate an entry with one comparison,
// and what lets snapshots copy back only what changed: a snapshot
// records the generation it was taken at, and restore copies back only
// pages stamped newer than that, so rewinding a core whose SRAM was
// never touched after the snapshot costs nothing. Generations are
// monotone for the core's lifetime (Restore does not rewind them), which
// keeps any number of outstanding snapshots valid: a page equal to its
// state in snapshot S is exactly a page never stamped after S's
// generation. A page stamped with generation zero was never written
// and is all zeros, so a snapshot keeps no copy of it: a just-built
// core's snapshot holds no SRAM at all.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	numPages  = MemSize >> pageShift
)

// touch stamps the page holding addr with a fresh generation. Aligned
// word and halfword stores cannot cross a page, so one stamp covers
// every ISA store.
func (c *Core) touch(addr uint32) {
	c.memGen++
	c.pageGen[addr>>pageShift] = c.memGen
}

// touchRange stamps every page overlapping [addr, addr+n).
func (c *Core) touchRange(addr uint32, n int) {
	if n <= 0 {
		return
	}
	c.memGen++
	for p := addr >> pageShift; p <= (addr+uint32(n)-1)>>pageShift; p++ {
		c.pageGen[p] = c.memGen
	}
}

// touchAll stamps the whole bank (Load clears it wholesale).
func (c *Core) touchAll() {
	c.memGen++
	for p := range c.pageGen {
		c.pageGen[p] = c.memGen
	}
}

// CoreSnapshot is a point-in-time capture of one core: operating
// point, SRAM image, thread contexts, issue order, resource allocation
// and every counter. Timer registrations (issue, TWAIT) are
// kernel state and are captured by the kernel's own snapshot; Restore
// here copies only plain component state.
type CoreSnapshot struct {
	gen          uint64
	cfg          Config
	threads      [MaxThreads]Thread
	rr           []int
	timerAlloc   [MaxThreads]bool
	accrualStart sim.Time
	accruedJ     float64
	dynamicJ     float64
	instrCount   uint64
	classCounts  [energy.NumInstrClasses]uint64
	idleSlots    uint64
	lastIssue    sim.Time
	debugTrace   []uint32
	console      []byte
	halted       bool
	// pages is the SRAM image a page at a time, nil for a page never
	// written (all zeros).
	pages [numPages][]byte
}

// Snapshot captures the core's current state. Every page ever written
// is copied (snapshots are taken once per build or shared prefix;
// restores are the hot path).
func (c *Core) Snapshot() *CoreSnapshot {
	c.settled("Snapshot")
	c.rrNormalize()
	s := &CoreSnapshot{
		gen:          c.memGen,
		cfg:          c.cfg,
		threads:      c.threads,
		rr:           append([]int(nil), c.rr...),
		timerAlloc:   c.timerAlloc,
		accrualStart: c.accrualStart,
		accruedJ:     c.accruedJ,
		dynamicJ:     c.dynamicJ,
		instrCount:   c.InstrCount,
		classCounts:  c.ClassCounts,
		idleSlots:    c.IdleSlots,
		lastIssue:    c.LastIssue,
		debugTrace:   append([]uint32(nil), c.DebugTrace...),
		console:      append([]byte(nil), c.Console...),
		halted:       c.halted,
	}
	written := 0
	for _, g := range c.pageGen {
		if g != 0 {
			written++
		}
	}
	img := make([]byte, written*pageSize)
	for p, g := range c.pageGen {
		if g != 0 {
			off := p << pageShift
			s.pages[p], img = img[:pageSize:pageSize], img[pageSize:]
			copy(s.pages[p], c.mem[off:off+pageSize])
		}
	}
	// Every later write stamps its page with a generation above s.gen
	// (touch increments memGen first), so "dirty since this snapshot"
	// is exactly pageGen > s.gen.
	return s
}

// SRAMBytes reports how much SRAM the snapshot holds a copy of: the
// pages written before it was taken.
func (s *CoreSnapshot) SRAMBytes() int {
	n := 0
	for _, page := range s.pages {
		n += len(page)
	}
	return n
}

// SetConfig moves a snapshot taken at construction to another operating
// point: restoring it then gives the core New would build at cfg. On a
// snapshot of a core that has run it would rewrite history, since the
// energy accrued before it was taken stays at the old point.
func (s *CoreSnapshot) SetConfig(cfg Config) { s.cfg = cfg }

// Restore rewinds the core to a prior Snapshot, copying back (or, for a
// page the snapshot never saw written, clearing) only the SRAM pages
// written since, and reports the bytes rewritten. It reuses
// the core's existing slice capacity, so restoring allocates nothing
// beyond (at most) first-time slice growth.
func (c *Core) Restore(s *CoreSnapshot) int {
	c.settled("Restore")
	// Bump the generation before stamping: the copied-back pages get a
	// stamp no earlier write (and no predecode-cache entry made under
	// one) could share.
	c.memGen++
	dirty := 0
	for p := 0; p < numPages; p++ {
		if c.pageGen[p] > s.gen {
			page := c.mem[p<<pageShift:][:pageSize]
			if s.pages[p] != nil {
				copy(page, s.pages[p])
			} else {
				clear(page)
			}
			c.pageGen[p] = c.memGen
			dirty += pageSize
		}
	}
	c.cfg = s.cfg
	c.clk = sim.NewClock(s.cfg.FreqMHz)
	c.fillInstrEnergy()
	c.threads = s.threads
	c.rr = append(c.rr[:0], s.rr...)
	c.rrOff = 0
	c.timerAlloc = s.timerAlloc
	c.accrualStart = s.accrualStart
	c.accruedJ = s.accruedJ
	c.dynamicJ = s.dynamicJ
	c.InstrCount, c.commMark = s.instrCount, s.instrCount
	c.ClassCounts = s.classCounts
	c.IdleSlots = s.idleSlots
	c.LastIssue = s.lastIssue
	c.DebugTrace = append(c.DebugTrace[:0], s.debugTrace...)
	c.Console = append(c.Console[:0], s.console...)
	c.halted = s.halted
	return dirty
}
