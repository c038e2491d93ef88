package xs1

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"swallow/internal/energy"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
)

// rig is a single-slice test machine with cores on demand.
type rig struct {
	k   *sim.Kernel
	net *noc.Network
	// exact builds cores on the reference pipeline (Core.SetExact), the
	// side the turbo differentials compare against.
	exact bool
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	net, err := noc.NewNetwork(k, topo.MustSystem(1, 1), noc.OperatingConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, net: net}
}

func (r *rig) core(t *testing.T, node topo.NodeID, src string) *Core {
	t.Helper()
	return r.coreWith(t, node, MustAssemble(src))
}

// coreWith builds a core at node with p loaded.
func (r *rig) coreWith(t *testing.T, node topo.NodeID, p *Program) *Core {
	t.Helper()
	c, err := NewCore(r.k, r.net.Switch(node), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.SetExact(r.exact)
	if err := c.Load(p); err != nil {
		t.Fatal(err)
	}
	return c
}

// run drives the kernel until all given cores finish, failing on traps
// or timeout.
func (r *rig) run(t *testing.T, horizon sim.Time, cores ...*Core) {
	t.Helper()
	step := horizon / 100
	if step == 0 {
		step = 1
	}
	for r.k.Now() < horizon {
		r.k.RunFor(step)
		done := true
		for _, c := range cores {
			if err := c.Trapped(); err != nil {
				t.Fatalf("trap at %v: %v", r.k.Now(), err)
			}
			if !c.Done() {
				done = false
			}
		}
		if done {
			return
		}
	}
	for i, c := range cores {
		if !c.Done() {
			for tid := range c.threads {
				th := &c.threads[tid]
				if th.State != TFree && th.State != TDone {
					t.Logf("core %d thread %d: %v pc=%#x", i, tid, th.State, th.PC)
				}
			}
		}
	}
	t.Fatalf("cores did not finish in %v", horizon)
}

func v00() topo.NodeID { return topo.MakeNodeID(0, 0, topo.LayerV) }
func h00() topo.NodeID { return topo.MakeNodeID(0, 0, topo.LayerH) }

func TestALUProgram(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc  r0, 21
		add  r1, r0, r0     ; 42
		dbg  r1
		sub  r2, r1, r0     ; 21
		dbg  r2
		mul  r3, r0, r0     ; 441
		dbg  r3
		ldc  r4, 1000
		divu r5, r4, r0     ; 47
		dbg  r5
		remu r6, r4, r0     ; 13
		dbg  r6
		eq   r7, r0, r0
		dbg  r7
		lss  r8, r0, r1
		dbg  r8
		not  r9, r7         ; ^1
		dbg  r9
		neg  r10, r7        ; -1
		dbg  r10
		tend
	`)
	r.run(t, sim.Millisecond, c)
	want := []uint32{42, 21, 441, 47, 13, 1, 1, ^uint32(1), ^uint32(0)}
	if len(c.DebugTrace) != len(want) {
		t.Fatalf("trace %v, want %v", c.DebugTrace, want)
	}
	for i := range want {
		if c.DebugTrace[i] != want[i] {
			t.Errorf("trace[%d] = %d, want %d", i, c.DebugTrace[i], want[i])
		}
	}
}

func TestShiftsAndBitOps(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc  r0, 1
		shli r1, r0, 31
		dbg  r1             ; 0x80000000
		shri r2, r1, 31
		dbg  r2             ; 1
		ashr r3, r1, r2     ; wait: ashr is rrr
		dbg  r3             ; 0xC0000000
		mkmsk r4, 5
		dbg  r4             ; 31
		ldc  r5, 0xff
		andi r6, r5, 0x0f
		dbg  r6             ; 15
		ori  r7, r6, 0x30
		dbg  r7             ; 0x3f
		ldc  r8, 40
		shl  r9, r0, r8     ; shift >= 32 -> 0
		dbg  r9
		tend
	`)
	r.run(t, sim.Millisecond, c)
	want := []uint32{0x80000000, 1, 0xC0000000, 31, 15, 0x3f, 0}
	for i := range want {
		if c.DebugTrace[i] != want[i] {
			t.Errorf("trace[%d] = %#x, want %#x", i, c.DebugTrace[i], want[i])
		}
	}
}

func TestMemoryOps(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc  r0, @buf
		ldc  r1, 0xdeadbeef
		stwi r1, r0, 0
		ldwi r2, r0, 0
		dbg  r2
		ldc  r3, 0x7f
		st8  r3, r0, r4      ; r4 = 0 -> buf[0]
		ld8  r5, r0, r4
		dbg  r5
		ldwi r6, r0, 0       ; word now 0xdeadbe7f
		dbg  r6
		ldc  r7, 2
		ldc  r8, 0xFFFF8001  ; halfword pattern
		st16 r8, r0, r7      ; buf+4
		ld16s r9, r0, r7
		dbg  r9              ; sign extended 0xffff8001
		stwi r1, sp, -4      ; stack store
		ldwi r10, sp, -4
		dbg  r10
		tend
	buf:
		.word 0, 0
	`)
	r.run(t, sim.Millisecond, c)
	want := []uint32{0xdeadbeef, 0x7f, 0xdeadbe7f, 0xffff8001, 0xdeadbeef}
	for i := range want {
		if i >= len(c.DebugTrace) || c.DebugTrace[i] != want[i] {
			t.Fatalf("trace = %#x, want %#x", c.DebugTrace, want)
		}
	}
}

func TestLoopAndCall(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc  r0, 0        ; sum
		ldc  r1, 10       ; n
	loop:
		bl   addn
		subi r1, r1, 1
		brt  r1, loop
		dbg  r0           ; 55
		tend
	addn:
		add  r0, r0, r1
		ret
	`)
	r.run(t, sim.Millisecond, c)
	if len(c.DebugTrace) != 1 || c.DebugTrace[0] != 55 {
		t.Fatalf("trace = %v, want [55]", c.DebugTrace)
	}
}

func TestBAUIndirect(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc r0, @target  ; byte address of the target
		bau r0
		dbg r1           ; skipped
	target:
		ldc r1, 9
		dbg r1
		tend
	`)
	_ = c
	r.run(t, sim.Millisecond, c)
	if len(c.DebugTrace) != 1 || c.DebugTrace[0] != 9 {
		t.Fatalf("trace = %v, want [9]", c.DebugTrace)
	}
}

func TestThreadForkJoin(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		; main: spawn a worker that computes 6*7 into shared memory.
		getst r1, worker
		ldc   r2, 6
		tsetr r1, 0, r2       ; worker r0 = 6
		ldc   r2, @result
		tsetr r1, 1, r2       ; worker r1 = &result
		ldc   r2, 0x8000
		tsetr r1, 12, r2      ; worker sp
		tstart r1
		tjoin r1
		ldc   r3, @result
		ldwi  r4, r3, 0
		dbg   r4
		tend
	worker:
		ldc   r2, 7
		mul   r3, r0, r2
		stwi  r3, r1, 0
		tend
	result:
		.word 0
	`)
	r.run(t, sim.Millisecond, c)
	if len(c.DebugTrace) != 1 || c.DebugTrace[0] != 42 {
		t.Fatalf("trace = %v, want [42]", c.DebugTrace)
	}
}

func TestThreadExhaustion(t *testing.T) {
	r := newRig(t)
	var spawn strings.Builder
	spawn.WriteString("main:\n")
	// Spawn 7 workers (8 total with main), then an 8th GETST must trap.
	for i := 0; i < 8; i++ {
		spawn.WriteString("getst r1, worker\n")
	}
	spawn.WriteString("tend\nworker:\ntend\n")
	c := r.core(t, v00(), spawn.String())
	r.k.RunUntil(sim.Millisecond)
	if err := c.Trapped(); err == nil {
		t.Fatal("expected trap on thread exhaustion")
	} else if !strings.Contains(err.Error(), "no free hardware thread") {
		t.Fatalf("wrong trap: %v", err)
	}
}

// eq2Program builds a main thread that spawns nt-1 workers, each
// executing iters loop iterations, then everyone halts.
func eq2Program(nt, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ldc r4, %d\n", iters)
	for i := 1; i < nt; i++ {
		b.WriteString("getst r1, worker\n")
		fmt.Fprintf(&b, "tsetr r1, 0, r4\n")
		fmt.Fprintf(&b, "ldc r2, %d\n", 0x8000+i*0x800)
		b.WriteString("tsetr r1, 12, r2\n")
		b.WriteString("tstart r1\n")
	}
	// Main runs the same loop.
	b.WriteString("add r0, r4, r5\nworkmain:\nsubi r0, r0, 1\nbrt r0, workmain\ntend\n")
	b.WriteString("worker:\nworkloop:\nsubi r0, r0, 1\nbrt r0, workloop\ntend\n")
	return b.String()
}

func TestEq2ThreadThroughput(t *testing.T) {
	// Eq. 2: IPSc = f * min(4, Nt) / 4; IPSt = f / max(4, Nt).
	const f = 500.0 // MHz
	for _, nt := range []int{1, 2, 3, 4, 5, 6, 8} {
		r := newRig(t)
		c := r.core(t, v00(), eq2Program(nt, 20000))
		start := r.k.Now()
		r.run(t, 100*sim.Millisecond, c)
		elapsed := (c.LastIssue - start).Seconds()
		ips := float64(c.InstrCount) / elapsed
		wantIPS := f * 1e6 * math.Min(4, float64(nt)) / 4
		if math.Abs(ips-wantIPS)/wantIPS > 0.02 {
			t.Errorf("Nt=%d: IPSc = %.3g, want %.3g (Eq. 2)", nt, ips, wantIPS)
		}
		// Per-thread rate of a worker thread.
		if nt > 1 {
			th := c.Thread(1)
			ipst := float64(th.Instrs) / elapsed
			wantT := f * 1e6 / math.Max(4, float64(nt))
			if math.Abs(ipst-wantT)/wantT > 0.05 {
				t.Errorf("Nt=%d: IPSt = %.3g, want %.3g", nt, ipst, wantT)
			}
		}
	}
}

func TestDividerStallsOnlyIssuingThread(t *testing.T) {
	// A div-looping thread stalls itself 32 cycles per divide, but a
	// sibling ALU thread keeps full speed.
	r := newRig(t)
	c := r.core(t, v00(), `
		getst r1, divthread
		ldc   r2, 500
		tsetr r1, 0, r2
		ldc   r2, 0x8000
		tsetr r1, 12, r2
		tstart r1
		ldc   r0, 60000
	aluLoop:
		subi r0, r0, 1
		brt  r0, aluLoop
		tjoin r1
		tend
	divthread:
		ldc  r2, 7
		ldc  r3, 100
	divloop:
		divu r4, r3, r2
		subi r0, r0, 1
		brt  r0, divloop
		tend
	`)
	start := r.k.Now()
	r.run(t, 100*sim.Millisecond, c)
	elapsed := (c.LastIssue - start).Seconds()
	// The ALU thread: 120000 instructions at f/4 = 125 MIPS -> 0.96 ms.
	// The divider thread (500 iterations x ~40 cycles) finishes earlier.
	aluThread := c.Thread(0)
	ips := float64(aluThread.Instrs) / elapsed
	if ips < 110e6 {
		t.Errorf("ALU thread at %.3g IPS; divider thread stalled the pipeline", ips)
	}
}

func TestChannelPingPong(t *testing.T) {
	r := newRig(t)
	vID := uint32(noc.MakeChanEndID(uint16(v00()), 0))
	hID := uint32(noc.MakeChanEndID(uint16(h00()), 0))
	sender := r.core(t, v00(), fmt.Sprintf(`
		getr r0, 2          ; chanend
		ldc  r1, %d
		setd r0, r1
		ldc  r2, 12345
		out  r0, r2
		in   r0, r3         ; wait for echo
		dbg  r3
		outct r0, ct_end
		tend
	`, hID))
	echo := r.core(t, h00(), fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		in   r0, r2
		addi r2, r2, 1
		out  r0, r2
		outct r0, ct_end
		tend
	`, vID))
	r.run(t, 10*sim.Millisecond, sender, echo)
	if len(sender.DebugTrace) != 1 || sender.DebugTrace[0] != 12346 {
		t.Fatalf("echo trace = %v, want [12346]", sender.DebugTrace)
	}
}

func TestTokenAndControlTokenProtocol(t *testing.T) {
	r := newRig(t)
	vID := uint32(noc.MakeChanEndID(uint16(v00()), 0))
	hID := uint32(noc.MakeChanEndID(uint16(h00()), 0))
	producer := r.core(t, v00(), fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		ldc  r2, 0xab
		outt r0, r2
		outct r0, ct_end
		tend
	`, hID))
	consumer := r.core(t, h00(), fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		int  r0, r2
		dbg  r2
		chkct r0, ct_end
		tend
	`, vID))
	r.run(t, 10*sim.Millisecond, producer, consumer)
	if len(consumer.DebugTrace) != 1 || consumer.DebugTrace[0] != 0xab {
		t.Fatalf("trace = %v, want [0xab]", consumer.DebugTrace)
	}
}

func TestCHKCTMismatchTraps(t *testing.T) {
	r := newRig(t)
	vID := uint32(noc.MakeChanEndID(uint16(v00()), 0))
	hID := uint32(noc.MakeChanEndID(uint16(h00()), 0))
	producer := r.core(t, v00(), fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		ldc  r2, 5
		outt r0, r2
		tend
	`, hID))
	consumer := r.core(t, h00(), fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		chkct r0, ct_end    ; data token arrives instead
		tend
	`, vID))
	_ = producer
	r.k.RunUntil(10 * sim.Millisecond)
	if err := consumer.Trapped(); err == nil || !strings.Contains(err.Error(), "CHKCT") {
		t.Fatalf("expected CHKCT trap, got %v", err)
	}
}

func TestTimerWait(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		getr r0, 3          ; timer
		time r1
		addi r1, r1, 100    ; +100 ticks = 1 us
		twait r1
		time r2
		sub  r3, r2, r1     ; overshoot (>= 0)
		dbg  r3
		freer r0
		tend
	`)
	start := r.k.Now()
	r.run(t, sim.Millisecond, c)
	elapsed := r.k.Now() - start
	if elapsed < sim.Microsecond {
		t.Errorf("TWAIT returned after %v, want >= 1us", elapsed)
	}
	if len(c.DebugTrace) != 1 || int32(c.DebugTrace[0]) < 0 || c.DebugTrace[0] > 10 {
		t.Errorf("overshoot = %v ticks", c.DebugTrace)
	}
}

func TestTrapDivideByZero(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), "ldc r0, 5\ndivu r1, r0, r2\ntend")
	r.k.RunUntil(sim.Millisecond)
	if err := c.Trapped(); err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("want divide-by-zero trap, got %v", err)
	}
}

func TestTrapBadMemory(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc r0, 0x20000
		ldwi r1, r0, 0
		tend
	`)
	r.k.RunUntil(sim.Millisecond)
	if err := c.Trapped(); err == nil {
		t.Fatal("out-of-range load did not trap")
	}
}

func TestTrapMisalignedAccess(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc r0, 2
		ldwi r1, r0, 0
		tend
	`)
	r.k.RunUntil(sim.Millisecond)
	if err := c.Trapped(); err == nil {
		t.Fatal("misaligned load did not trap")
	}
}

func TestGETIDAndGETTID(t *testing.T) {
	r := newRig(t)
	c := r.core(t, h00(), `
		getid r0
		dbg r0
		gettid r1
		dbg r1
		tend
	`)
	r.run(t, sim.Millisecond, c)
	if c.DebugTrace[0] != uint32(h00()) {
		t.Errorf("GETID = %#x, want %#x", c.DebugTrace[0], uint32(h00()))
	}
	if c.DebugTrace[1] != 0 {
		t.Errorf("GETTID = %d, want 0", c.DebugTrace[1])
	}
}

func TestConsoleOutput(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		ldc r0, 'h'
		dbgc r0
		ldc r0, 'i'
		dbgc r0
		tend
	`)
	r.run(t, sim.Millisecond, c)
	if string(c.Console) != "hi" {
		t.Errorf("console = %q, want \"hi\"", c.Console)
	}
}

func TestEnergyAccountingMatchesEq1Shape(t *testing.T) {
	// A fully loaded core (4 threads, heavy mix) must land near Eq. 1's
	// 193 mW at 500 MHz; an idle period costs idle power.
	r := newRig(t)
	c := r.core(t, v00(), eq2Program(4, 40000))
	start := r.k.Now()
	r.run(t, 100*sim.Millisecond, c)
	elapsed := (c.LastIssue - start).Seconds()
	bg := c.BackgroundPowerW()
	powerW := bg + c.DynamicEnergyJ()/elapsed
	// The Eq. 2 microbench is branch/ALU only, the lightest mix; expect
	// power between idle (113 mW) and full load (193 mW), well above
	// idle.
	if powerW < 0.140 || powerW > 0.200 {
		t.Errorf("loaded core power = %.1f mW, want within (140, 200)", powerW*1e3)
	}
}

func TestIdlePowerMatchesIdleModel(t *testing.T) {
	r := newRig(t)
	c, err := NewCore(r.k, r.net.Switch(v00()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunFor(sim.Millisecond)
	powerW := c.EnergyJ() / sim.Millisecond.Seconds()
	want := energy.CorePowerIdle(500)
	if math.Abs(powerW-want) > 1e-6 {
		t.Errorf("idle power = %v, want %v", powerW, want)
	}
}

func TestSetFrequencyScalesThroughputAndPower(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), eq2Program(4, 10000))
	if err := c.SetFrequency(250); err != nil {
		t.Fatal(err)
	}
	start := r.k.Now()
	r.run(t, 100*sim.Millisecond, c)
	elapsed := (c.LastIssue - start).Seconds()
	ips := float64(c.InstrCount) / elapsed
	want := 250e6
	if math.Abs(ips-want)/want > 0.02 {
		t.Errorf("IPS at 250 MHz = %.3g, want %.3g", ips, want)
	}
	if err := c.SetFrequency(9999); err == nil {
		t.Error("absurd frequency accepted")
	}
}

func TestCoreConfigValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewCore(r.k, r.net.Switch(v00()), Config{FreqMHz: 0, VDD: 1}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := NewCore(r.k, r.net.Switch(v00()), Config{FreqMHz: 500, VDD: 2}); err == nil {
		t.Error("2V VDD accepted")
	}
}

func TestHostMemoryAccess(t *testing.T) {
	r := newRig(t)
	c, err := NewCore(r.k, r.net.Switch(v00()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.writeWord(0x100, 0xabcd); err != nil {
		t.Fatal(err)
	}
	v, err := c.loadWord(0x100)
	if err != nil || v != 0xabcd {
		t.Fatalf("loadWord = %#x, %v", v, err)
	}
	if err := c.writeWord(MemSize, 0); err == nil {
		t.Error("out-of-range host write accepted")
	}
	if _, err := c.loadWord(MemSize - 2); err == nil {
		t.Error("out-of-range, misaligned host read accepted")
	}
}

// writeWord pokes SRAM from the host side, as a program's store would:
// the core leaves its twin class first.
func (c *Core) writeWord(addr, v uint32) error {
	c.leave()
	return c.storeWord(addr, v)
}

func TestResourceAllocationProgram(t *testing.T) {
	r := newRig(t)
	c := r.core(t, v00(), `
		getr r0, 2
		getr r1, 2
		sub  r2, r1, r0   ; consecutive chanend ids differ by 1
		dbg  r2
		freer r0
		getr r3, 2        ; reuses freed id
		sub  r4, r3, r0
		dbg  r4
		getr r5, 3        ; timer
		dbg  r5
		tend
	`)
	r.run(t, sim.Millisecond, c)
	if c.DebugTrace[0] != 1 {
		t.Errorf("chanend id delta = %d, want 1", c.DebugTrace[0])
	}
	if c.DebugTrace[1] != 0 {
		t.Errorf("freed chanend not reused (delta %d)", c.DebugTrace[1])
	}
	if c.DebugTrace[2]&0x40000000 == 0 {
		t.Errorf("timer id %#x missing tag", c.DebugTrace[2])
	}
}
