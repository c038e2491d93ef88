package xs1

import (
	"encoding/binary"
	"fmt"
	"math"

	"swallow/internal/energy"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/trace"
)

// ThreadState enumerates hardware thread lifecycle states.
type ThreadState uint8

const (
	// TFree threads are unallocated.
	TFree ThreadState = iota
	// TPaused threads are allocated (GETST) but not started.
	TPaused
	// TReady threads compete for issue slots.
	TReady
	// TBlockedChan threads wait on a channel end.
	TBlockedChan
	// TBlockedTime threads wait on the reference clock.
	TBlockedTime
	// TBlockedJoin threads wait for another thread to halt.
	TBlockedJoin
	// TDone threads have executed TEND.
	TDone
	// TTrapped threads hit a protocol or memory error.
	TTrapped
)

// String names the state.
func (s ThreadState) String() string {
	return [...]string{"free", "paused", "ready", "blocked-chan",
		"blocked-time", "blocked-join", "done", "trapped"}[s]
}

// Thread is one hardware thread context.
type Thread struct {
	ID    int
	State ThreadState
	Regs  [NumRegs]uint32
	PC    uint32 // instruction word address

	// nextReady is the earliest issue time (pipeline spacing, divider
	// stalls).
	nextReady sim.Time
	// blockedOn is the channel end a TBlockedChan thread waits for.
	blockedOn *noc.ChanEnd
	// joinTarget is the thread a TBlockedJoin thread waits for.
	joinTarget int
	// trap describes why a TTrapped thread stopped.
	trap error

	// Instrs counts instructions issued by this thread.
	Instrs uint64
}

// Trap reports the trap reason of a TTrapped thread.
func (t *Thread) Trap() error { return t.trap }

// BlockedOn reports the channel end a TBlockedChan thread waits for;
// meaningful only in that state.
func (t *Thread) BlockedOn() *noc.ChanEnd { return t.blockedOn }

// Config parameterises one core.
type Config struct {
	// FreqMHz is the core clock (71-500 MHz on Swallow).
	FreqMHz float64
	// VDD is the supply voltage (1.0 V on Swallow; DVFS studies vary it).
	VDD float64
}

// DefaultConfig is the Swallow operating point: 500 MHz at 1 V.
func DefaultConfig() Config { return Config{FreqMHz: 500, VDD: 1.0} }

// Validate checks the operating point against the silicon's envelope —
// the same bounds construction enforces, shared with Retune so a
// retuned machine accepts exactly the configs a fresh build would.
// (VMin stability is the stricter run-time check of SetVoltage; DVFS
// experiments construct below-VMin points deliberately.)
func (cfg Config) Validate() error {
	if cfg.FreqMHz < 1 || cfg.FreqMHz > energy.MaxCoreFreqMHz {
		return fmt.Errorf("xs1: frequency %v MHz outside 1-500", cfg.FreqMHz)
	}
	if cfg.VDD < 0.5 || cfg.VDD > 1.2 {
		return fmt.Errorf("xs1: VDD %v outside 0.5-1.2", cfg.VDD)
	}
	return nil
}

// Core simulates one XS1-L processor: eight hardware threads sharing a
// four-stage pipeline and 64 KiB of single-cycle SRAM, attached to its
// network switch.
type Core struct {
	k    *sim.Kernel
	node topo.NodeID
	sw   *noc.Switch
	cfg  Config
	clk  sim.Clock

	mem []byte
	// memGen/pageGen drive snapshot dirty tracking (see snapshot.go):
	// every SRAM write stamps its page with the current generation;
	// Snapshot bumps the generation, so Restore copies back only pages
	// stamped after the snapshot it rewinds to.
	memGen  uint64
	pageGen [numPages]uint64

	threads [MaxThreads]Thread
	// rr is the round-robin issue order of thread IDs; the logical
	// order starts at rr[rrOff] (pickReady rotates by bumping the
	// offset, rrNormalize materializes it for everyone else).
	rr    []int
	rrOff int

	// issueTimer drives the pipeline: armed once per issue attempt and
	// re-armed forever, never reallocated. It and the twait timers are
	// held by value and fire through the preallocated firer structs
	// below, so building a core allocates no callback closures.
	issueTimer sim.Timer
	issueFire  issueFirer
	// twaitTimers wake TWAIT-blocked threads, one preallocated per
	// hardware thread (a thread blocks on at most one deadline).
	twaitTimers [MaxThreads]sim.Timer
	twaitFires  [MaxThreads]twaitFirer

	// chanWakes[thread][channel-end index] holds the wake callback a
	// thread blocked on one of this core's channel ends registers
	// (exec.go chanWake), filled in on first use.
	chanWakes [MaxThreads][]func()

	// timerAlloc tracks GETR'd timers.
	timerAlloc [MaxThreads]bool

	// icache is the predecoded instruction cache (window.go): one table
	// per SRAM page, noPage until the page is first fetched from, entries
	// validated against pageGen.
	// Derived state — it never appears in snapshots.
	icache [numPages]*ipage
	// scratch holds an instruction decoded outside the cache (fetchSlow).
	scratch ientry
	// turbo is the batching group this core issues through unless it
	// is exact — shared by all cores of a machine (GroupTurbo), a
	// singleton for standalone cores.
	turbo *turboGroup
	// exact routes issueStep to the unbatched reference pipeline
	// (SetExact). Configuration, not state: Snapshot and Restore leave
	// it alone.
	exact bool
	// t holds the fast-path counters, accumulated plain and folded into
	// the process-wide totals by FlushTurboStats.
	t TurboStats
	// commMark is InstrCount as of the last communication instruction
	// this core reached; the distance to InstrCount is the streak of
	// compute instructions that makes pre-execution worth trying.
	commMark uint64

	// Energy accounting: background (static + idle dynamic) accrues
	// with time; instructions add incremental switching energy.
	accrualStart sim.Time
	accruedJ     float64
	dynamicJ     float64
	// instrJ is energy.InstrEnergy at the core's supply voltage, per
	// class: what chargeInstr adds. Refilled wherever VDD changes.
	instrJ [energy.NumInstrClasses]float64

	// Counters.
	InstrCount  uint64
	ClassCounts [energy.NumInstrClasses]uint64
	IdleSlots   uint64
	// LastIssue is the kernel time of the most recent issued
	// instruction, for throughput measurements.
	LastIssue sim.Time

	// DebugTrace collects OpDBG values; Console collects OpDBGC bytes.
	// Load and Restore rewind them onto the same backing, so copy
	// what must outlive the run.
	DebugTrace []uint32
	Console    []byte

	halted bool

	// log holds the issue slots the core has pre-executed ahead of the
	// kernel clock and the group loop has not yet replayed (window.go), in
	// strided runs: runs log[logHead:logTail], filled from zero only when
	// empty, so logTail != 0 says the core's private state leads the
	// clock; the head run shrinks from the front as its slots are
	// replayed, and logAt is the time of the next one. Fixed backing,
	// never snapshotted: it is empty whenever RunUntil is not executing.
	logHead, logTail int
	logAt            sim.Time
	log              [preexecRuns]preRun
}

// issueFirer and twaitFirer bind the core's timer roles to methods
// without per-build closures (sim.Waker).
type issueFirer struct{ c *Core }

func (f *issueFirer) Fire() { f.c.issueStep() }

// twaitFirer wakes one hardware thread from a TWAIT deadline.
type twaitFirer struct {
	c  *Core
	id int
}

func (f *twaitFirer) Fire() {
	th := &f.c.threads[f.id]
	if th.State == TBlockedTime {
		f.c.kickThread(th)
	}
}

// NewCore builds a core bound to switch sw on kernel k.
func NewCore(k *sim.Kernel, sw *noc.Switch, cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		k:    k,
		node: sw.Node(),
		sw:   sw,
		cfg:  cfg,
		clk:  sim.NewClock(cfg.FreqMHz),
		mem:  make([]byte, MemSize),
	}
	c.issueFire.c = c
	c.issueTimer.Init(k, &c.issueFire)
	c.turbo = newTurboGroup(k, 1)
	for i := range c.icache {
		c.icache[i] = &noPage
	}
	for i := range c.threads {
		c.threads[i].ID = i
		c.twaitFires[i] = twaitFirer{c: c, id: i}
		c.twaitTimers[i].Init(k, &c.twaitFires[i])
	}
	c.accrualStart = k.Now()
	c.fillInstrEnergy()
	return c, nil
}

// fillInstrEnergy recomputes the per-class instruction energies for the
// current supply voltage — the same expression chargeInstr used to
// evaluate per instruction, so dynamicJ accrues bit-identically.
func (c *Core) fillInstrEnergy() {
	for class := range c.instrJ {
		c.instrJ[class] = energy.InstrEnergy(energy.InstrClass(class), c.cfg.VDD)
	}
}

// settled panics when the core holds pre-executed slots the group loop
// has not replayed: its registers, SRAM and counters are then ahead of
// the kernel clock, and entry — anything reaching into the core from
// outside its own issue step — would observe or disturb a state that
// does not exist at this time. Pre-execution is bounded so that this
// never happens (turbo.go); a violated bound must not pass silently.
func (c *Core) settled(entry string) {
	if c.logTail != 0 {
		c.unsettled(entry)
	}
}

// unsettled is settled's panic, out of line so that the check itself
// inlines into kickThread and the energy readers.
//
//go:noinline
func (c *Core) unsettled(entry string) {
	panic(fmt.Sprintf("xs1: %s on core %v with %d pre-executed slots not replayed (kernel at %v)",
		entry, c.node, c.logged(), c.k.Now()))
}

// Retune moves the core to a new operating point (clock and supply) in
// one step, banking energy accrued at the old point first. Unlike
// SetVoltage it applies construction's envelope checks only, so a
// retuned core accepts exactly the configs a fresh build would.
func (c *Core) Retune(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.settled("Retune")
	c.bankEnergy()
	c.cfg = cfg
	c.clk = sim.NewClock(cfg.FreqMHz)
	c.fillInstrEnergy()
	c.tracePowerState()
	return nil
}

// Node reports the core's position.
func (c *Core) Node() topo.NodeID { return c.node }

// Switch exposes the core's network switch.
func (c *Core) Switch() *noc.Switch { return c.sw }

// Config reports the core's operating point.
func (c *Core) Config() Config { return c.cfg }

// Thread exposes a thread context for inspection.
func (c *Core) Thread(id int) *Thread { return &c.threads[id] }

// ActiveThreads counts threads holding issue slots (ready or blocked on
// the divider; blocked threads do not burn issue energy but are still
// allocated).
func (c *Core) ActiveThreads() int {
	n := 0
	for i := range c.threads {
		switch c.threads[i].State {
		case TReady:
			n++
		}
	}
	return n
}

// LiveThreads counts threads not free/done/trapped.
func (c *Core) LiveThreads() int {
	n := 0
	for i := range c.threads {
		switch c.threads[i].State {
		case TFree, TDone, TTrapped:
		default:
			n++
		}
	}
	return n
}

// Load copies a program image into SRAM and resets thread 0 to run it.
// Remaining threads become free.
func (c *Core) Load(p *Program) error {
	if p.ByteLen() > MemSize {
		return fmt.Errorf("xs1: program exceeds SRAM")
	}
	for i := range c.mem {
		c.mem[i] = 0
	}
	for i, w := range p.Words {
		binary.LittleEndian.PutUint32(c.mem[i*4:], w)
	}
	c.touchAll()
	c.resetThreads()
	c.DebugTrace, c.Console = c.DebugTrace[:0], c.Console[:0]
	c.halted = false
	t0 := &c.threads[0]
	t0.State = TReady
	c.traceThread(t0)
	t0.PC = uint32(p.Entry)
	t0.Regs[RegSP] = MemSize - 4
	c.rr = append(c.rr, 0)
	c.scheduleIssue(c.alignUp(c.k.Now()))
	return nil
}

// LoadAt resets the core's threads and writes a program image at an
// arbitrary word-aligned byte offset, starting thread 0 there. Unlike
// Load it does not clear the rest of SRAM: it is how the nOS boot ROM
// is installed high in memory while leaving address 0 free for the
// incoming image.
func (c *Core) LoadAt(p *Program, byteBase uint32) error {
	if byteBase&3 != 0 {
		return fmt.Errorf("xs1: load base %#x not word aligned", byteBase)
	}
	if int(byteBase)+p.ByteLen() > MemSize {
		return fmt.Errorf("xs1: program at %#x exceeds SRAM", byteBase)
	}
	for i, w := range p.Words {
		binary.LittleEndian.PutUint32(c.mem[byteBase+uint32(i*4):], w)
	}
	c.touchRange(byteBase, p.ByteLen())
	c.resetThreads()
	c.halted = false
	t0 := &c.threads[0]
	t0.State = TReady
	c.traceThread(t0)
	t0.PC = byteBase/4 + uint32(p.Entry)
	t0.Regs[RegSP] = MemSize - 4
	c.rr = append(c.rr, 0)
	c.scheduleIssue(c.alignUp(c.k.Now()))
	return nil
}

// resetThreads returns every hardware thread to its power-on state,
// disarming any pending time waits from a previous program and
// discarding any pre-executed slots of it.
func (c *Core) resetThreads() {
	c.logHead, c.logTail = 0, 0
	for i := range c.threads {
		c.threads[i] = Thread{ID: i}
		c.twaitTimers[i].Disarm()
	}
	c.rr = c.rr[:0]
	c.rrOff = 0
}

// Done reports whether every live thread has halted.
func (c *Core) Done() bool { return c.LiveThreads() == 0 }

// Trapped returns the first trapped thread's error, or nil.
func (c *Core) Trapped() error {
	for i := range c.threads {
		if c.threads[i].State == TTrapped {
			return fmt.Errorf("thread %d: %w", i, c.threads[i].trap)
		}
	}
	return nil
}

// alignUp rounds a time up to the core's cycle grid.
func (c *Core) alignUp(t sim.Time) sim.Time {
	p := c.clk.Period()
	return (t + p - 1) / p * p
}

// scheduleIssue arranges the next issue attempt at time t (moving any
// later-scheduled attempt earlier).
func (c *Core) scheduleIssue(t sim.Time) {
	if c.halted {
		return
	}
	c.issueTimer.ArmEarliest(t)
}

// issueStep is the pipeline entry point, fired by the issue timer. The
// turbo path batches issue slots up to the next foreign kernel event;
// the slow path executes exactly one. Both render bit-identical
// machine state at every kernel-visible boundary.
func (c *Core) issueStep() {
	if c.exact {
		c.issueOne()
		return
	}
	c.turbo.run(c)
}

// SetExact selects the reference pipeline for this core: one
// instruction per kernel event and no predecode cache, the loop the
// fast path is held byte-identical to. core.Env.Checkout stamps it on
// every machine it hands out; it must not change while the core holds
// unreplayed slots.
func (c *Core) SetExact(on bool) {
	c.settled("SetExact")
	c.exact = on
}

// issueOne is the unbatched pipeline: pick the next ready thread in
// round-robin order and execute one instruction.
func (c *Core) issueOne() {
	c.settled("issueOne")
	now := c.k.Now()
	th := c.pickReady(now)
	if th == nil {
		c.IdleSlots++
		// No thread ready now: wake at the earliest future readiness.
		if next := c.earliestReadyTime(); next >= 0 {
			c.scheduleIssue(c.alignUp(next))
		}
		return
	}
	if e := c.fetchSlow(th); e != nil {
		c.issue(th, e, now)
	}
	// Another thread may issue next cycle.
	c.scheduleIssue(now + c.clk.Period())
}

// pickReady rotates the round-robin order and returns the first thread
// able to issue at time now, or nil. Shared by the slow and batched
// paths: the rotation is the architectural thread scheduler. The
// rotation is held as an offset into c.rr (bumping an index beats a
// memmove per issued instruction); everything outside the issue loop
// sees the materialized order via rrNormalize.
func (c *Core) pickReady(now sim.Time) *Thread {
	n := len(c.rr)
	idx := c.rrOff
	for i := 0; i < n; i++ {
		if idx >= n {
			idx -= n
		}
		cand := &c.threads[c.rr[idx]]
		idx++
		if cand.State == TReady && cand.nextReady <= now {
			if idx == n {
				idx = 0
			}
			c.rrOff = idx
			return cand
		}
	}
	// Every candidate rotated past and none issued: a full rotation is
	// the identity, so the offset stays.
	return nil
}

// rrNormalize materializes the round-robin rotation offset into the
// physical slice, so code that copies or appends to c.rr (snapshots,
// thread allocation) sees the logical issue order.
func (c *Core) rrNormalize() {
	if c.rrOff == 0 {
		return
	}
	var tmp [MaxThreads]int
	n := copy(tmp[:], c.rr[:c.rrOff])
	copy(c.rr, c.rr[c.rrOff:])
	copy(c.rr[len(c.rr)-n:], tmp[:n])
	c.rrOff = 0
}

// earliestReadyTime reports the soonest nextReady among ready threads,
// or -1 when no thread is ready at any time (the core then sleeps
// until something kicks it).
func (c *Core) earliestReadyTime() sim.Time {
	var next sim.Time = -1
	for _, id := range c.rr {
		t := &c.threads[id]
		if t.State == TReady && (next < 0 || t.nextReady < next) {
			next = t.nextReady
		}
	}
	return next
}

// kickThread readies a blocked thread and restarts the pipeline.
// traceEmit records an event on this core's track when a flight
// recorder is attached; a single branch otherwise.
func (c *Core) traceEmit(k trace.Kind, a, b int64) {
	if r := c.k.Recorder(); r != nil {
		r.Emit(int64(c.k.Now()), k, int32(c.node), a, b)
	}
}

// traceThread records a thread scheduling transition.
func (c *Core) traceThread(th *Thread) {
	c.traceEmit(trace.KindThreadState, int64(th.ID), int64(th.State))
}

// tracePowerState records the core's operating point after a change.
func (c *Core) tracePowerState() {
	c.traceEmit(trace.KindPowerState,
		int64(c.cfg.FreqMHz*1000+0.5), int64(c.cfg.VDD*1000+0.5))
}

func (c *Core) kickThread(th *Thread) {
	c.settled("kickThread")
	th.State = TReady
	th.blockedOn = nil
	c.traceThread(th)
	if th.nextReady < c.k.Now() {
		th.nextReady = c.alignUp(c.k.Now())
	}
	c.scheduleIssue(c.alignUp(max(c.k.Now(), th.nextReady)))
}

// chargeInstr bills one instruction issued in the slot at time now.
func (c *Core) chargeInstr(th *Thread, class energy.InstrClass, now sim.Time) {
	c.InstrCount++
	c.ClassCounts[class]++
	th.Instrs++
	c.LastIssue = now
	c.dynamicJ += c.instrJ[class]
}

// BackgroundPowerW is the always-on power at the core's operating point
// (static plus idle clock dynamic), voltage-scaled: dynamic power
// follows C*V^2*f and leakage is modelled proportional to V.
func (c *Core) BackgroundPowerW() float64 {
	return energy.ScalePowerToVoltage(
		energy.StaticPowerW,
		energy.IdleDynamicPerMHzW*c.cfg.FreqMHz,
		c.cfg.VDD)
}

// EnergyJ reports total energy consumed up to the current kernel time:
// background power integrated over elapsed time plus the incremental
// energy of every issued instruction.
func (c *Core) EnergyJ() float64 {
	c.settled("EnergyJ")
	elapsed := (c.k.Now() - c.accrualStart).Seconds()
	return c.accruedJ + c.dynamicJ + c.BackgroundPowerW()*elapsed
}

// DynamicEnergyJ reports only the instruction-switching energy.
func (c *Core) DynamicEnergyJ() float64 {
	c.settled("DynamicEnergyJ")
	return c.dynamicJ
}

// SetFrequency rescales the core clock (dynamic frequency scaling,
// Section III-B). Energy accrued so far is banked at the old operating
// point.
func (c *Core) SetFrequency(fMHz float64) error {
	if fMHz < 1 || fMHz > energy.MaxCoreFreqMHz {
		return fmt.Errorf("xs1: frequency %v MHz outside 1-500", fMHz)
	}
	c.settled("SetFrequency")
	c.bankEnergy()
	c.cfg.FreqMHz = fMHz
	c.clk = sim.NewClock(fMHz)
	c.tracePowerState()
	return nil
}

// SetVoltage rescales the supply (the full-DVFS capability the paper
// attributes to newer xCORE devices; Swallow's board ran a fixed 1 V).
// Voltages below the experimentally determined VMin for the current
// frequency are rejected - the silicon would not be stable there.
func (c *Core) SetVoltage(v float64) error {
	if v < 0.5 || v > 1.2 {
		return fmt.Errorf("xs1: VDD %v outside 0.5-1.2", v)
	}
	if vmin := energy.VMin(c.cfg.FreqMHz); v < vmin-1e-9 {
		return fmt.Errorf("xs1: VDD %.3f below VMin(%v MHz) = %.3f", v, c.cfg.FreqMHz, vmin)
	}
	c.settled("SetVoltage")
	c.bankEnergy()
	c.cfg.VDD = v
	c.fillInstrEnergy()
	c.tracePowerState()
	return nil
}

// bankEnergy accrues background energy at the current operating point
// before it changes.
func (c *Core) bankEnergy() {
	elapsed := (c.k.Now() - c.accrualStart).Seconds()
	c.accruedJ += c.BackgroundPowerW() * elapsed
	c.accrualStart = c.k.Now()
	c.traceEmit(trace.KindEnergyAccrual,
		int64(math.Float64bits(c.accruedJ+c.dynamicJ)), int64(c.InstrCount))
}

// Halt freezes the core (used by machine teardown).
func (c *Core) Halt() {
	c.settled("Halt")
	c.halted = true
	c.issueTimer.Disarm()
}

// --- memory access ---

func (c *Core) loadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 || int(addr)+4 > MemSize {
		return 0, fmt.Errorf("bad word load at %#x", addr)
	}
	return binary.LittleEndian.Uint32(c.mem[addr:]), nil
}

func (c *Core) storeWord(addr, v uint32) error {
	if addr&3 != 0 || int(addr)+4 > MemSize {
		return fmt.Errorf("bad word store at %#x", addr)
	}
	binary.LittleEndian.PutUint32(c.mem[addr:], v)
	c.touch(addr)
	return nil
}

// ReadWord exposes SRAM for host-side inspection (loaders, tests).
func (c *Core) ReadWord(addr uint32) (uint32, error) { return c.loadWord(addr) }

// WriteWord pokes SRAM from the host side.
func (c *Core) WriteWord(addr, v uint32) error { return c.storeWord(addr, v) }

// WriteBytes copies host data into SRAM.
func (c *Core) WriteBytes(addr uint32, data []byte) error {
	if int(addr)+len(data) > MemSize {
		return fmt.Errorf("bad byte store at %#x", addr)
	}
	copy(c.mem[addr:], data)
	c.touchRange(addr, len(data))
	return nil
}

// ReadBytes copies SRAM into a host buffer.
func (c *Core) ReadBytes(addr uint32, n int) ([]byte, error) {
	if int(addr)+n > MemSize {
		return nil, fmt.Errorf("bad byte load at %#x", addr)
	}
	out := make([]byte, n)
	copy(out, c.mem[addr:])
	return out, nil
}

// trapThread stops a thread with a diagnostic.
func (c *Core) trapThread(th *Thread, format string, args ...any) {
	th.State = TTrapped
	th.trap = fmt.Errorf(format, args...)
	c.traceThread(th)
}

// resolveChanEnd maps a resource-id register value to a channel end on
// this core; output operations may also target it.
func (c *Core) resolveChanEnd(th *Thread, rid uint32) (*noc.ChanEnd, bool) {
	id := noc.ChanEndID(rid)
	if topo.NodeID(id.Node()) != c.node {
		c.trapThread(th, "chanend %v not on this core %v", id, c.node)
		return nil, false
	}
	if int(id.Index()) >= c.sw.ChanEndCount() {
		c.trapThread(th, "chanend index %d out of range", id.Index())
		return nil, false
	}
	return c.sw.ChanEnd(id.Index()), true
}
