package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/topo"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// turboCut is everything the kernel and cores expose at one RunFor
// boundary: the architectural state the turbo contract pins. Seq,
// Fired and Pending catch any batching scheme that reorders or
// swallows events even when the visible counters happen to agree.
type turboCut struct {
	fp, threads         string
	now                 sim.Time
	seq, fired          uint64
	pending             int
	batches, instrs     uint64
	batchLen            [xs1.BatchLenBuckets]uint64
	decodeHits, decodeM uint64
	preexec, replayed   uint64
	roundSlots, adopted uint64
	fanouts             uint64
	// stalls are the counted-stall counters.
	stalls xs1.TurboStats
	// seen is what the shape's foreign observer has recorded so far.
	seen string
}

// turboShape is one machine and workload the differential runs: build
// returns a fresh, loaded machine.
type turboShape struct {
	name  string
	build func(t *testing.T) *Machine
	// ahead marks a shape whose cores must get to pre-execute, or the
	// differential has not tested what it is there for.
	ahead bool
	// cuts draws the RunFor schedule; nil takes randomCuts.
	cuts func(rng *rand.Rand) []sim.Time
	// watch arms a foreign observer on the built machine and returns
	// what it has seen so far, for the cuts to compare.
	watch func(m *Machine) func() string
	// step, if set, returns what the schedule does to the built machine
	// after segment i, before the cut is recorded: a retune, a snapshot,
	// a restore.
	step func(t *testing.T, m *Machine) func(i int)
	// twins marks a shape whose cores are loaded from one *xs1.Program:
	// some of them have to adopt a twin's windows (AdoptedSlots), where a
	// shape that loads each core from a program of its own never may.
	twins bool
	// rounds says whether the replay has to retire slots by whole blocks
	// of the group ring (roundsMust), must refuse to every time
	// (roundsNever), or may do either.
	rounds int
	// capped marks a shape that is nothing but issue slots once it is
	// under way, so that every batch of a segment but its last has to
	// end at the batch cap — on the very slot, whether or not a round
	// step carried it there.
	capped bool
	// fanout says whether windows have to be offered to the helper pool
	// (fanoutMust: several cores on a streak with segments long enough to
	// be worth sharing), must never be (fanoutNever: a lone computing
	// core, or windows a few slots long), or may be.
	fanout int
	// counted says whether issue slots of blocked threads have to be
	// accounted for without a firing (countedMust: threads parked on
	// channel ends that the fabric provably leaves alone for a slot or
	// two), must never be (countedNever: no such thread, or never such a
	// moment), or may be.
	counted int
}

const (
	roundsMust   = 1
	roundsNever  = -1
	fanoutMust   = 1
	fanoutNever  = -1
	countedMust  = 1
	countedNever = -1
)

// batchCap is xs1's turboBatchCap, which the capped shapes pin: the
// upper bound of BatchLen's last bucket.
const batchCap = 1 << (xs1.BatchLenBuckets - 1)

// hostThreads is the GOMAXPROCS the differential runs at, so that the
// helper pool is live whatever the host: windows are computed on up to
// four threads and every cut still has to equal the slow path's.
const hostThreads = 4

// cycle is one core cycle at the default 500 MHz.
const cycle = 2 * sim.Nanosecond

// randomCuts is the default schedule: 1 ps to ~8 µs, log-ish spread so
// some cuts land mid-batch after a handful of picoseconds and others
// span thousands of instructions.
func randomCuts(rng *rand.Rand) []sim.Time {
	schedule := make([]sim.Time, 40)
	for i := range schedule {
		schedule[i] = sim.Time(1 + rng.Int63n(1<<uint(3+rng.Intn(21))))
	}
	return schedule
}

// cycleCuts cuts every 1 to 41 cycles, so that deadlines fall inside
// the rounds that replay a window and windows end a few slots after
// they begin — with, every fiftieth cut, a segment of three to nine
// thousand cycles: sixteen windows to that horizon are worth sharing,
// so they are computed on several host threads, and the short cuts that
// follow find whatever state that left.
func cycleCuts(rng *rand.Rand) []sim.Time {
	schedule := make([]sim.Time, 600)
	for i := range schedule {
		schedule[i] = sim.Time(1+rng.Intn(41)) * cycle
		if i%50 == 25 {
			schedule[i] = sim.Time(3000+rng.Intn(6000)) * cycle
		}
	}
	return schedule
}

// stallCuts cuts every 1 to 41 cycles and nothing else: deadlines fall
// between a channel-end wake, the retry it would arm and the idle probe
// after that, so a slot is counted here, refused for the deadline there.
func stallCuts(rng *rand.Rand) []sim.Time {
	schedule := make([]sim.Time, 1500)
	for i := range schedule {
		schedule[i] = sim.Time(1+rng.Intn(41)) * cycle
	}
	return schedule
}

// cappedCores is how many cores the capped shape keeps busy. With m
// members in step a batch that opens inside their windows asks for
// rounds m-1 slots in, and the cap bounds the answer to
// (batchCap-1-(m-1))/m whole turns; seventeen divides 2^20+1, so there a
// bound one slot too generous is one whole turn too many, where sixteen
// would hide it in the remainder.
const cappedCores = 17

// capCuts moves the phase by a short segment, then runs cappedCores dense
// cores for two cap-fulls of slots and the two more that make whole
// cycles: three batches. The first opens before any window does; the
// second opens inside them, where a round bound one turn too generous
// shows; and a batch one slot longer or shorter than the cap moves the
// third, two slots long, into another BatchLen bucket.
func capCuts(rng *rand.Rand) []sim.Time {
	return []sim.Time{
		sim.Time(1+rng.Intn(300)) * cycle,
		sim.Time((2*batchCap+cappedCores-1)/cappedCores) * cycle,
	}
}

// loadLockstep loads every core of a slice with the heavy compute mix,
// four threads on even cores and eight on odd ones: sixteen cores with
// an instruction in every slot, on one clock.
func loadLockstep(t *testing.T, m *Machine) {
	t.Helper()
	for i, c := range m.Cores() {
		loadOn(t, m, c.Node(), workload.HeavyLoad(4+4*(i%2), 1<<20))
	}
}

// thinSlice is a shape whose every core runs the heavy compute mix on the
// thread count threads gives it — one or two leave issue slots empty, so
// the core's slots fall in blocks with a gap between them — with core 5
// retuned to retune MHz, if that is not zero.
func thinSlice(name string, rounds int, retune float64, threads func(i int) int) turboShape {
	return turboShape{name: name, ahead: true, rounds: rounds, fanout: fanoutMust, counted: countedNever, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		for i, c := range m.Cores() {
			loadOn(t, m, c.Node(), workload.HeavyLoad(threads(i), 1<<20))
		}
		if retune != 0 {
			if err := m.Cores()[5].SetFrequency(retune); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}}
}

var turboShapes = []turboShape{
	// One slice: a three-stage comm pipeline plus a four-thread
	// compute-heavy core.
	{name: "1x1-pipeline", fanout: fanoutNever, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		loadPipeline(t, m, 64)
		loadOn(t, m, topo.MakeNodeID(1, 1, topo.LayerV), workload.HeavyLoad(4, 40))
		return m
	}},
	// Four slices: sixteen concurrent word streams over package, board
	// and cable links plus one compute-heavy core. The batching group
	// has 64 members, most of them asleep on a channel end, and the
	// queue head is as often a link or channel-end timer as an issue
	// timer — the shape the communication path's absorb runs in.
	{name: "2x2-streams", fanout: fanoutNever, counted: countedMust, build: func(t *testing.T) *Machine {
		m := MustNew(2, 2, Options{})
		loadStreams(t, m, 24)
		loadOn(t, m, topo.MakeNodeID(2, 1, topo.LayerV), workload.HeavyLoad(4, 40))
		return m
	}},
	// One slice of mostly compute, the shape cores pre-execute in:
	// one to eight heavy-load threads (idle slots, irregular re-arms,
	// cores finishing at different times), divider stalls beside ALU
	// threads, a thread that traps while its siblings carry on, a core
	// that can never run ahead (one thread parked in IN, one in TWAIT,
	// two computing), a core whose napping thread keeps waking it, and
	// a word stream crossing a package.
	{name: "1x1-compute", ahead: true, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		n, v, h := topo.MakeNodeID, topo.LayerV, topo.LayerH
		for i, threads := range []int{1, 2, 3, 5, 8, 4} {
			loadOn(t, m, n(i%2, i/2, v), workload.HeavyLoad(threads, 80))
		}
		loadOn(t, m, n(0, 0, h), xs1.MustAssemble(spawn("alu", "alu")+`
			ldc r0, 100000
			ldc r3, 7
		divloop:
			divu r4, r0, r3
			add  r5, r5, r4
			remu r6, r0, r3
			subi r0, r0, 1
			brt  r0, divloop
			tend`+aluWorker))
		loadOn(t, m, n(1, 0, h), xs1.MustAssemble(spawn("bad", "alu")+mainLoop+`
		bad:
			ldc r0, 200
		badloop:
			add  r1, r1, r0
			subi r0, r0, 1
			brt  r0, badloop
			ldc  r3, 2
			ldw  r4, r3, r0   ; byte address 2: traps
			tend`+aluWorker))
		loadOn(t, m, n(0, 1, h), xs1.MustAssemble(spawn("waiter", "sleeper", "alu")+mainLoop+`
		waiter:
			getr r0, 2
			in   r0, r1       ; never fed
			tend
		sleeper:
			time r1
			ldc  r2, 10000000
			add  r1, r1, r2
			twait r1
			tend`+aluWorker))
		loadOn(t, m, n(1, 1, h), xs1.MustAssemble(spawn("napper", "alu")+mainLoop+`
		napper:
			ldc  r3, 60
		nap:
			time r1
			addi r1, r1, 90   ; 0.9 us
			twait r1
			subi r3, r3, 1
			brt  r3, nap
			tend`+aluWorker))
		loadOn(t, m, n(1, 3, h), workload.StreamRx(64))
		loadOn(t, m, n(1, 3, v), workload.StreamTx(noc.MakeChanEndID(uint16(n(1, 3, h)), 0), 64))
		return m
	}},
	// The shape the paper measures in and round steps are for: all
	// sixteen cores of a slice under heavy load on one clock, so the
	// group ring only rotates. Cut every few cycles.
	{name: "1x1-lockstep", ahead: true, rounds: roundsMust, fanout: fanoutMust, counted: countedNever, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		loadLockstep(t, m)
		return m
	}},
	// The same with one member on another clock: its slots drift through
	// the others' grid, the ring does not merely rotate, and a round step
	// is refused wherever the drifting member is — in hand, in the ring,
	// or still the kernel's, its slot the next registration.
	{name: "1x1-lockstep-retuned", ahead: true, rounds: roundsNever, fanout: fanoutMust, counted: countedNever, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		loadLockstep(t, m)
		if err := m.Cores()[5].SetFrequency(400); err != nil {
			t.Fatal(err)
		}
		return m
	}},
	// Thin cores: one thread each (an instruction, an idle probe, three
	// periods skipped) and two (two instructions, a probe, two skipped).
	// All sixteen hold the same block, so the ring still only rotates and
	// steps by whole blocks; the cuts land inside blocks and inside gaps.
	thinSlice("1x1-one-thread", roundsMust, 0, func(int) int { return 1 }),
	thinSlice("1x1-two-threads", roundsMust, 0, func(int) int { return 2 }),
	// One, two, four and eight threads side by side: three block shapes
	// in one ring, which steps only over the odd turn in which every head
	// run is slots a period apart — the thin cores' being what a deadline
	// cut off their windows.
	thinSlice("1x1-mixed-threads", 0, 0, func(i int) int { return 1 << (i % 4) }),
	// Thin cores with one member on another clock.
	thinSlice("1x1-one-thread-retuned", roundsNever, 400, func(int) int { return 1 }),
	// One-thread cores loaded a cycle or two apart: the same block on the
	// same clock, begun at four different times, so the members' slots
	// never fall in one series and only their places in the block tell
	// the ring it does not merely rotate.
	{name: "1x1-one-thread-staggered", ahead: true, rounds: roundsNever, fanout: fanoutMust, counted: countedNever, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		for i, c := range m.Cores() {
			loadOn(t, m, c.Node(), workload.HeavyLoad(1, 1<<20))
			m.RunFor(sim.Time(i%4) * cycle)
		}
		return m
	}},
	// Staggered members. Cores are loaded a few cycles apart; three of
	// them spend those cycles on another clock before joining the common
	// one, so their slots sit between the others' for good; and two run
	// one and two threads for a while, whose idle probes skip ahead —
	// such a core sits in the ring more than a period out with a fresh
	// window that begins on its grid, which only the test of each
	// member's place against the slot in hand keeps out of a round.
	{name: "1x1-staggered", ahead: true, rounds: roundsMust, fanout: fanoutMust, counted: countedNever, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		for i, c := range m.Cores() {
			prog := workload.HeavyLoad(4+4*(i%2), 1<<20)
			switch i {
			case 3:
				prog = workload.HeavyLoad(1, 100)
			case 12:
				prog = workload.HeavyLoad(2, 100)
			}
			loadOn(t, m, c.Node(), prog)
			if i%5 == 2 {
				if err := c.SetFrequency(437); err != nil {
					t.Fatal(err)
				}
			}
			m.RunFor(sim.Time(1+i%4) * cycle)
		}
		for _, c := range m.Cores() {
			if err := c.SetFrequency(500); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}},
	// A periodic foreign timer, as the power-trace tick is one, reading
	// every core: 150.5 cycles apart, so it lands on the slot grid and
	// between slots by turns, inside windows and inside rounds, and has
	// to find every core settled at exactly its own time. It also keeps
	// every window under 151 slots, so none is worth offering to a helper.
	{name: "1x1-lockstep-ticked", ahead: true, rounds: roundsMust, fanout: fanoutNever, counted: countedNever,
		build: func(t *testing.T) *Machine {
			m := MustNew(1, 1, Options{})
			loadLockstep(t, m)
			return m
		},
		watch: func(m *Machine) func() string {
			var seen []string
			var tick *sim.Timer
			tick = m.K.NewTimer(func() {
				seen = append(seen, fmt.Sprintf("t=%d seq=%d instrs=%d e=%x", m.K.Now(), m.K.Seq(),
					m.TotalInstrCount(), math.Float64bits(totalCoreEnergyJ(m))))
				tick.ArmAfter(301 * cycle / 2)
			})
			tick.ArmAfter(301 * cycle / 2)
			return func() string { return fmt.Sprint(seen) }
		}},
	// Long runs of seventeen dense cores on two slices: the batch cap
	// falls inside a round step's reach — on a turn's last slot, if the
	// step is not careful — and has to cut at the slot it always did.
	{name: "1x2-capped", ahead: true, rounds: roundsMust, capped: true, fanout: fanoutMust, counted: countedNever, cuts: capCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 2, Options{})
		for i, c := range m.Cores()[:cappedCores] {
			loadOn(t, m, c.Node(), workload.HeavyLoad(4+4*(i%2), 1<<20))
		}
		m.RunFor(sim.Microsecond) // past the thread spawns, which end batches early
		return m
	}},
	// The 16 streams cut every few cycles, for the three moments a counted
	// stall has: the wake, the retry it stands for, the probe after it.
	{name: "2x2-streams-cut", fanout: fanoutNever, counted: countedMust, cuts: stallCuts, build: func(t *testing.T) *Machine {
		m := MustNew(2, 2, Options{})
		loadStreams(t, m, 100)
		return m
	}},
	// The same at the links' top speed: tokens 14 ns apart inside a
	// package, so the next one is often due before the probe.
	{name: "2x2-streams-maxrate", fanout: fanoutNever, counted: countedMust, cuts: stallCuts, build: func(t *testing.T) *Machine {
		cfg := noc.MaxRateConfig()
		m := MustNew(2, 2, Options{Noc: &cfg})
		loadStreams(t, m, 200)
		return m
	}},
	// Streams whose every core also computes: a core with a thread that
	// can issue is never inert, and a blocked thread's slots are its
	// sibling's to use.
	{name: "1x1-streams-computing", fanout: fanoutNever, counted: countedNever, cuts: stallCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		n, v, h := topo.MakeNodeID, topo.LayerV, topo.LayerH
		for _, s := range [][2]topo.NodeID{{n(0, 0, v), n(0, 0, h)}, {n(1, 1, v), n(1, 2, v)}} {
			dest := noc.MakeChanEndID(uint16(s[1]), 0)
			loadOn(t, m, s[1], xs1.MustAssemble(spawn("alu")+rxSource(100)+aluWorker))
			loadOn(t, m, s[0], xs1.MustAssemble(spawn("alu")+txSource(dest, 100)+aluWorker))
		}
		return m
	}},
	// Bursts one way, echoes the other, on one channel end each: the
	// burster is parked in OUT on a full injection port while the echoes
	// land in its receive buffer — deliveries that wake a thread they
	// cannot help — and the echoer's words arrive while it is parked in
	// its own OUT.
	{name: "1x1-burst-echo", fanout: fanoutNever, counted: countedMust, cuts: stallCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		a, b := topo.MakeNodeID(0, 0, topo.LayerV), topo.MakeNodeID(0, 2, topo.LayerV)
		const bursts, burst = 40, 6
		loadOn(t, m, b, workload.PingRx(noc.MakeChanEndID(uint16(a), 0), bursts*burst))
		loadOn(t, m, a, xs1.MustAssemble(fmt.Sprintf(`
			getr r0, 2
			ldc  r1, %d
			setd r0, r1
			ldc  r5, %d
		burst:`+strings.Repeat(`
			out  r0, r5`, burst)+strings.Repeat(`
			in   r0, r6`, burst)+`
			subi r5, r5, 1
			brt  r5, burst
			outct r0, ct_end
			chkct r0, ct_end
			tend`, uint32(noc.MakeChanEndID(uint16(b), 0)), bursts)))
		return m
	}},
	// Two threads of one core ping-pong through two of its channel ends:
	// whichever is parked, the other is running or parked too, and what
	// feeds a channel end is a source port of the same switch, which
	// promises nothing.
	{name: "1x1-local-pingpong", fanout: fanoutNever, counted: countedNever, cuts: stallCuts, build: func(t *testing.T) *Machine {
		m := MustNew(1, 1, Options{})
		node := topo.MakeNodeID(1, 1, topo.LayerH)
		loadOn(t, m, node, workload.LocalPingPong(noc.MakeChanEndID(uint16(node), 0), noc.MakeChanEndID(uint16(node), 1), 400))
		return m
	}},
	// Streams inside packages at the links' top speed between cores at
	// 71 MHz: a slot is 14.08 ns and a token 14, so the two slots a wake
	// would stand for always reach past the next token, a probe past the
	// delivery latency — nothing is ever counted.
	{name: "1x1-slow-cores", fanout: fanoutNever, counted: countedNever, cuts: stallCuts, build: func(t *testing.T) *Machine {
		cfg := noc.MaxRateConfig()
		m := MustNew(1, 1, Options{Noc: &cfg})
		for y := 0; y < 4; y++ {
			tx, rx := topo.MakeNodeID(y%2, y, topo.LayerV), topo.MakeNodeID(y%2, y, topo.LayerH)
			loadOn(t, m, rx, workload.StreamRx(60))
			loadOn(t, m, tx, workload.StreamTx(noc.MakeChanEndID(uint16(rx), 0), 60))
		}
		if err := m.SetAllFrequencies(71); err != nil {
			t.Fatal(err)
		}
		return m
	}},
	// Twins: the cores of a slice loaded from one program, so that the
	// ones in one state share the window one of them computes (xs1
	// twin.go). Sixteen in lockstep, cut every few cycles.
	{name: "1x1-twins", ahead: true, twins: true, rounds: roundsMust, counted: countedNever, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		return loadedAll(t, workload.HeavyLoad(4, 1<<20))
	}},
	// Thin twins: one thread each, an instruction, an idle probe and
	// three periods skipped.
	{name: "1x1-twins-one-thread", ahead: true, twins: true, rounds: roundsMust, counted: countedNever, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		return loadedAll(t, workload.HeavyLoad(1, 1<<20))
	}},
	// Twins fed a stream: every core but one runs a program that computes
	// on four threads, then takes a channel end and reads eight words from
	// it while three threads go on computing; the other core streams them
	// to one twin, where they wait in the receive buffer while it computes
	// in its class. The GETR takes every twin out of its class (the
	// channel end's ID is its own); the fed twin reads its words and goes
	// on, the others block.
	{name: "1x1-twins-fed", ahead: true, twins: true, cuts: cycleCuts, build: func(t *testing.T) *Machine {
		m := loadedAll(t, xs1.MustAssemble(spawn("alu", "alu", "alu")+`
			ldc  r5, 3000
		spin:
			subi r5, r5, 1
			brt  r5, spin
			getr r0, 2
			ldc  r2, 8
			ldc  r3, 0
		rxloop:
			in   r0, r4
			add  r3, r3, r4
			subi r2, r2, 1
			brt  r2, rxloop
			chkct r0, ct_end
			dbg  r3
			tend`+aluWorker))
		fed := topo.MakeNodeID(1, 1, topo.LayerH)
		loadOn(t, m, topo.MakeNodeID(0, 0, topo.LayerV), workload.StreamTx(noc.MakeChanEndID(uint16(fed), 0), 8))
		return m
	}},
	// One twin retuned at a cut: it leaves its class and the others go on
	// adopting.
	{name: "1x1-twins-retuned", ahead: true, twins: true, counted: countedNever, cuts: cycleCuts,
		build: func(t *testing.T) *Machine { return loadedAll(t, workload.HeavyLoad(4, 1<<20)) },
		step: func(t *testing.T, m *Machine) func(int) {
			return func(i int) {
				if i == 100 {
					if err := m.Cores()[5].SetFrequency(400); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
	// Twins that write: every thread counts in the word under its stack
	// pointer, so each window stores, and twins adopt the pages. The
	// machine is snapshotted at a cut, runs on, and is restored to it at a
	// later cut: every page a twin adopted has to be rewound as a page it
	// wrote is.
	{name: "1x1-twins-restored", ahead: true, twins: true, counted: countedNever, cuts: cycleCuts,
		build: func(t *testing.T) *Machine { return loadedAll(t, countingLoad) },
		step: func(t *testing.T, m *Machine) func(int) {
			var snap *Snapshot
			return func(i int) {
				switch i {
				case 100:
					snap = m.Snapshot()
				case 300:
					m.Restore(snap)
				}
			}
		}},
}

// loadedAll builds a slice with p on every core.
func loadedAll(t *testing.T, p *xs1.Program) *Machine {
	t.Helper()
	m := MustNew(1, 1, Options{})
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	return m
}

// countingLoad keeps four threads counting, each in the word under its
// stack pointer: a compute loop whose every turn stores a new value.
var countingLoad = xs1.MustAssemble(spawn("count", "count", "count") + `
	count:
		ldwi r6, sp, -1
		addi r6, r6, 1
		stwi r6, sp, -1
		add  r7, r7, r6
		bru  count
`)

// txSource and rxSource are workload.StreamTx and StreamRx as source, for
// programs that run them beside other threads.
func txSource(dest noc.ChanEndID, words int) string {
	return fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		ldc  r2, %d
		ldc  r3, 0
	txloop:
		out  r0, r3
		addi r3, r3, 1
		subi r2, r2, 1
		brt  r2, txloop
		outct r0, ct_end
		tend
	`, uint32(dest), words)
}

func rxSource(words int) string {
	return fmt.Sprintf(`
		getr r0, 2
		ldc  r2, %d
		ldc  r3, 0
	rxloop:
		in   r0, r4
		add  r3, r3, r4
		subi r2, r2, 1
		brt  r2, rxloop
		chkct r0, ct_end
		dbg  r3
		tend
	`, words)
}

// spawn emits assembly starting one worker thread at each label, each
// with its own stack.
func spawn(labels ...string) string {
	src := ""
	for i, l := range labels {
		src += fmt.Sprintf("\ngetst r1, %s\nldc r2, %d\ntsetr r1, 12, r2\ntstart r1\n", l, 0xF000-(i+1)*0x800)
	}
	return src
}

// mainLoop keeps thread 0 computing for longer than any schedule runs;
// aluWorker is the same for a spawned thread.
const (
	mainLoop = `
			ldc r0, 1000000
		mainloop:
			add  r1, r1, r0
			xor  r2, r2, r1
			subi r0, r0, 1
			brt  r0, mainloop
			tend`
	aluWorker = `
		alu:
			ldc r0, 1000000
		aluloop:
			add  r1, r1, r0
			xor  r2, r2, r1
			subi r0, r0, 1
			brt  r0, aluloop
			tend
`
)

// threadStates renders what the fingerprint leaves out: every core's
// idle-slot and per-class counts and every thread's state, PC,
// registers and instruction count — where a thread rotation or a
// pipeline-spacing slip would show first.
func threadStates(m *Machine) string {
	s := ""
	for i, c := range m.Cores() {
		s += fmt.Sprintf(" c%d{idle=%d classes=%v", i, c.IdleSlots, c.ClassCounts)
		for id := 0; id < xs1.MaxThreads; id++ {
			if th := c.Thread(id); th.State != xs1.TFree {
				s += fmt.Sprintf(" t%d:%v@%d#%d%v", id, th.State, th.PC, th.Instrs, th.Regs)
			}
		}
		s += "}"
	}
	return s
}

func loadOn(t *testing.T, m *Machine, node topo.NodeID, p *xs1.Program) {
	t.Helper()
	if err := m.Load(node, p); err != nil {
		t.Fatal(err)
	}
}

// loadStreams places sixteen StreamTx/StreamRx pairs on a 2x2-slice
// machine: four inside a package, six between packages of one board,
// six between boards. Every stream runs south or east, so no ring of
// held routes can close (bench/README.md records the deadlock that
// unrestricted directions produce).
func loadStreams(t *testing.T, m *Machine, words int) {
	t.Helper()
	n, v, h := topo.MakeNodeID, topo.LayerV, topo.LayerH
	streams := [][2]topo.NodeID{
		{n(0, 0, v), n(0, 0, h)}, {n(3, 0, v), n(3, 0, h)}, {n(0, 7, v), n(0, 7, h)}, {n(3, 7, v), n(3, 7, h)},
		{n(0, 1, v), n(0, 2, v)}, {n(1, 0, v), n(1, 2, v)}, {n(0, 1, h), n(1, 1, h)},
		{n(2, 5, v), n(2, 6, v)}, {n(2, 4, h), n(3, 4, h)}, {n(3, 5, v), n(3, 6, v)},
		{n(1, 3, v), n(1, 4, v)}, {n(0, 3, v), n(0, 5, v)}, {n(1, 2, h), n(2, 2, h)},
		{n(1, 5, h), n(2, 5, h)}, {n(2, 3, v), n(2, 4, v)}, {n(1, 6, h), n(3, 6, h)},
	}
	used := make(map[topo.NodeID]bool)
	kinds := [3]int{}
	for _, s := range streams {
		if used[s[0]] || used[s[1]] || s[1].X() < s[0].X() || s[1].Y() < s[0].Y() {
			t.Fatalf("stream %v -> %v reuses a node or runs north/west", s[0], s[1])
		}
		used[s[0]], used[s[1]] = true, true
		switch {
		case s[0].Package() == s[1]:
			kinds[0]++
		case m.Sys.SameSlice(s[0], s[1]):
			kinds[1]++
		default:
			kinds[2]++
		}
		loadOn(t, m, s[1], workload.StreamRx(words))
		loadOn(t, m, s[0], workload.StreamTx(noc.MakeChanEndID(uint16(s[1]), 0), words))
	}
	if kinds != [3]int{4, 6, 6} {
		t.Fatalf("streams by distance class = %v, want 4 package, 6 board, 6 cable", kinds)
	}
}

// runSchedule builds the shape's machine and runs the given RunFor
// schedule, recording a cut after every segment.
func runSchedule(t *testing.T, shape turboShape, schedule []sim.Time, exact bool) []turboCut {
	t.Helper()
	m := shape.build(t)
	m.setExact(exact)
	seen := func() string { return "" }
	if shape.watch != nil {
		seen = shape.watch(m)
	}
	step := func(int) {}
	if shape.step != nil {
		step = shape.step(t, m)
	}
	cuts := make([]turboCut, 0, len(schedule))
	for i, d := range schedule {
		m.RunFor(d)
		step(i)
		ts := xs1.ReadTurboStats()
		cuts = append(cuts, turboCut{
			seen:       seen(),
			roundSlots: ts.RoundSlots,
			adopted:    ts.AdoptedSlots,
			fanouts:    ts.Fanouts,
			stalls:     ts,
			fp:         fingerprint(m),
			threads:    threadStates(m),
			now:        m.K.Now(),
			seq:        m.K.Seq(),
			fired:      m.K.Fired(),
			pending:    m.K.Pending(),
			batches:    ts.Batches,
			batchLen:   ts.BatchLen,
			instrs:     ts.BatchedInstrs,
			decodeHits: ts.DecodeHits,
			decodeM:    ts.DecodeMisses,
			preexec:    ts.PreexecSlots,
			replayed:   ts.ReplayedSlots,
		})
	}
	return cuts
}

// TestTurboRandomizedDifferential runs the same randomized RunFor
// schedule through the slow one-instruction-per-event path and the
// batched turbo path on twin machines and requires identical core
// fingerprints and identical kernel (time, seq) accounting — Now,
// Seq, Fired, Pending — at every boundary. The cut points are
// arbitrary relative to the workload, so each one lands the batch
// loop at a different foreign-event horizon: sibling-core issue
// ties, comm instructions, thread sleeps and RunFor deadlines all
// get exercised as batch exits.
func TestTurboRandomizedDifferential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostThreads))
	for _, shape := range turboShapes {
		t.Run(shape.name, func(t *testing.T) {
			for seed := int64(0x5eed70b0); seed < 0x5eed70b0+3; seed++ {
				turboDifferential(t, shape, seed)
			}
		})
	}
}

func turboDifferential(t *testing.T, shape turboShape, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	draw := shape.cuts
	if draw == nil {
		draw = randomCuts
	}
	schedule := draw(rng)

	slow := runSchedule(t, shape, schedule, true)
	fast := runSchedule(t, shape, schedule, false)

	turboBatches := fast[len(fast)-1].batches - slow[len(slow)-1].batches
	if turboBatches == 0 {
		t.Fatal("turbo run recorded no batches; fast path not exercised")
	}
	for i := range schedule {
		s, f := slow[i], fast[i]
		if s.now != f.now || s.seq != f.seq || s.fired != f.fired || s.pending != f.pending {
			t.Fatalf("cut %d (after RunFor(%d)): kernel accounting diverged\n slow now=%d seq=%d fired=%d pending=%d\nturbo now=%d seq=%d fired=%d pending=%d",
				i, schedule[i], s.now, s.seq, s.fired, s.pending, f.now, f.seq, f.fired, f.pending)
		}
		if s.fp != f.fp {
			t.Fatalf("cut %d (after RunFor(%d), now=%d): fingerprint diverged\n slow %s\nturbo %s",
				i, schedule[i], s.now, s.fp, f.fp)
		}
		if s.threads != f.threads {
			t.Fatalf("cut %d (after RunFor(%d), now=%d): thread state diverged\n slow %s\nturbo %s",
				i, schedule[i], s.now, s.threads, f.threads)
		}
		// A core's private state may lead the clock only inside one
		// RunUntil: at every cut each pre-executed slot has been
		// replayed. (fingerprint's EnergyJ would have panicked on a
		// core that still held one.)
		if f.preexec != f.replayed {
			t.Fatalf("cut %d: %d slots pre-executed, %d replayed", i, f.preexec, f.replayed)
		}
		if s.seen != f.seen {
			t.Fatalf("cut %d (after RunFor(%d), now=%d): the foreign observer saw different things\n slow %s\nturbo %s",
				i, schedule[i], s.now, s.seen, f.seen)
		}
		if shape.capped && i > 0 {
			// Nothing fires but issue slots and nothing ends a batch but
			// the cap and the segment's deadline: every batch but the
			// last is the cap's length, and the last holds the rest.
			slots, batches := f.fired-fast[i-1].fired, f.batches-fast[i-1].batches
			if want := (slots + batchCap - 1) / batchCap; batches != want {
				t.Fatalf("cut %d: %d slots ran in %d batches, want %d: the cap of %d did not cut where it should",
					i, slots, batches, want, batchCap)
			}
			var want [xs1.BatchLenBuckets]uint64
			want[xs1.BatchLenBuckets-1] = batches - 1
			want[bits.Len64(slots-(batches-1)*batchCap-1)]++
			for j := range want {
				if got := f.batchLen[j] - fast[i-1].batchLen[j]; got != want[j] {
					t.Fatalf("cut %d: %d slots ran in %d batches, %d of them %d to %d slots long, want %d: the cap of %d did not cut where it should",
						i, slots, batches, got, 1<<j/2+1, 1<<j, want[j], batchCap)
				}
			}
		}
	}
	last, base := fast[len(fast)-1], slow[len(slow)-1]
	ahead := last.preexec - base.preexec
	if shape.ahead && ahead == 0 {
		t.Error("no core pre-executed a slot; the shape is there to exercise that")
	}
	inRounds := last.roundSlots - base.roundSlots
	if inRounds > ahead {
		t.Errorf("%d slots retired by rounds, more than the %d pre-executed", inRounds, ahead)
	}
	if shape.rounds == roundsMust && inRounds == 0 {
		t.Error("no slot was retired by a round step; the shape is there to exercise that")
	}
	if shape.rounds == roundsNever && inRounds != 0 {
		t.Errorf("%d of %d pre-executed slots retired by round steps in a ring that does not merely rotate", inRounds, ahead)
	}
	// Only the turbo run opens windows, so only it adopts them.
	if n := base.adopted - slow[0].adopted; n != 0 {
		t.Errorf("the exact run adopted %d slots", n)
	}
	adopted := last.adopted - base.adopted
	if shape.twins && adopted == 0 {
		t.Error("no core adopted a twin's window; the shape is there to exercise that")
	}
	if !shape.twins && adopted != 0 {
		t.Errorf("%d slots adopted in a shape whose cores each run a program of their own", adopted)
	}
	fanouts := last.fanouts - base.fanouts
	if shape.fanout == fanoutMust && fanouts == 0 {
		t.Errorf("no window was offered to the helper pool on %d host threads; the shape is there to exercise that", hostThreads)
	}
	if shape.fanout == fanoutNever && fanouts != 0 {
		t.Errorf("windows were offered to the helper pool %d times in a shape with nothing worth sharing", fanouts)
	}
	// The reference pipeline counts nothing, not even the stalls it sees.
	if a, b := slow[0].stalls, base.stalls; a.CountedSlots != b.CountedSlots || a.DoomedWakes != b.DoomedWakes || a.BlockProbes != b.BlockProbes {
		t.Errorf("the exact run moved the counted-stall counters: %d slots counted, %d doomed wakes, %d blocks",
			b.CountedSlots-a.CountedSlots, b.DoomedWakes-a.DoomedWakes, b.BlockProbes-a.BlockProbes)
	}
	slots := last.stalls.CountedSlots - base.stalls.CountedSlots
	wakes, doomed := last.stalls.CountedWakes-base.stalls.CountedWakes, last.stalls.DoomedWakes-base.stalls.DoomedWakes
	probes, blocks := last.stalls.CountedProbes-base.stalls.CountedProbes, last.stalls.BlockProbes-base.stalls.BlockProbes
	if slots != 2*wakes+probes || wakes > doomed || probes > blocks {
		t.Errorf("%d slots counted for %d of %d doomed wakes and %d of %d probes after a block", slots, wakes, doomed, probes, blocks)
	}
	if shape.counted == countedMust && (wakes == 0 || probes == 0) {
		t.Errorf("%d doomed wakes and %d probes after a block were counted; the shape is there to exercise both", wakes, probes)
	}
	if shape.counted == countedNever && slots != 0 {
		t.Errorf("%d issue slots were counted in a shape where no thread's stall is safe to count", slots)
	}
	t.Logf("%d batches, %d slots pre-executed, %d of them adopted and %d retired by rounds, %d fan-outs, %d slots counted (%d of %d doomed wakes, %d of %d probes after a block), simulated %v",
		turboBatches, ahead, adopted, inRounds, fanouts, slots, wakes, doomed, probes, blocks, last.now)
}

// TestCountedStallShare runs the 16-stream shape of the differential the
// way Machine.Run runs anything — segments of a microsecond and more — and
// requires that what the counting is for gets counted: at least 85 % of the
// wakes that cannot satisfy their thread and 95 % of the idle probes after
// a block. The simulator is deterministic, so the shares are ratios of
// exact integers; what is refused is the first block of every receiver
// (nothing holds its channel end yet) and the slots a deadline cuts off.
func TestCountedStallShare(t *testing.T) {
	m := MustNew(2, 2, Options{})
	loadStreams(t, m, 24)
	loadOn(t, m, topo.MakeNodeID(2, 1, topo.LayerV), workload.HeavyLoad(4, 40))
	before := xs1.ReadTurboStats()
	if err := m.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	after := xs1.ReadTurboStats()
	wakes, doomed := after.CountedWakes-before.CountedWakes, after.DoomedWakes-before.DoomedWakes
	probes, blocks := after.CountedProbes-before.CountedProbes, after.BlockProbes-before.BlockProbes
	t.Logf("%d of %d doomed wakes and %d of %d probes after a block counted, %d slots in all",
		wakes, doomed, probes, blocks, after.CountedSlots-before.CountedSlots)
	if doomed == 0 || wakes*100 < 85*doomed {
		t.Errorf("%d of %d doomed wakes counted, want at least 85%%", wakes, doomed)
	}
	if blocks == 0 || probes*100 < 95*blocks {
		t.Errorf("%d of %d probes after a block counted, want at least 95%%", probes, blocks)
	}
}

// TestRotationShare pins where a loaded slice's issue slots run: sixteen
// cores of four heavy-load threads each fill every slot, and at least 95 %
// of the slots they pre-execute are issued in the fixed rotation rather
// than picked by a scan (xs1.TurboStats.RotationSlots).
func TestRotationShare(t *testing.T) {
	m := MustNew(1, 1, Options{})
	if err := m.LoadAll(workload.HeavyLoad(4, 50_000_000)); err != nil {
		t.Fatal(err)
	}
	m.RunFor(20 * sim.Microsecond) // past the spawns
	before := xs1.ReadTurboStats()
	m.RunFor(200 * sim.Microsecond)
	after := xs1.ReadTurboStats()
	pre, rot := after.PreexecSlots-before.PreexecSlots, after.RotationSlots-before.RotationSlots
	t.Logf("%d of %d pre-executed slots in the rotation", rot, pre)
	if pre == 0 || rot*100 < 95*pre {
		t.Errorf("%d of %d pre-executed slots in the rotation, want at least 95%%", rot, pre)
	}
}

// TestTurboToggle pins the wiring: the nil Env checks machines out on
// the turbo path, an exact Env on the reference pipeline, and a pooled
// machine takes whichever its next checkout asks for.
func TestTurboToggle(t *testing.T) {
	pool := NewPool()
	batches := func(env *Env) uint64 {
		m, release, err := env.Checkout(1, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		loadOn(t, m, topo.MakeNodeID(0, 0, topo.LayerV), workload.HeavyLoad(2, 40))
		before := xs1.ReadTurboStats().Batches
		m.RunFor(10 * sim.Microsecond)
		if m.TotalInstrCount() == 0 {
			t.Fatal("the run executed no instructions")
		}
		return xs1.ReadTurboStats().Batches - before
	}
	if batches(&Env{Pool: pool}) == 0 {
		t.Error("a turbo checkout ran no batches")
	}
	if n := batches(&Env{Pool: pool, Exact: true}); n != 0 {
		t.Errorf("an exact checkout of the same machine ran %d batches", n)
	}
	if batches(&Env{Pool: pool}) == 0 {
		t.Error("the machine stayed exact after an exact checkout")
	}
	if st := pool.Stats(); st.Builds != 1 || st.Reuses != 2 {
		t.Errorf("pool stats %+v, want one build reused twice", st)
	}
}
