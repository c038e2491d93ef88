// Package trace is the simulator's flight recorder: a low-overhead,
// preallocated ring buffer of typed simulation events that every layer
// of the stack (sim kernel, XS1 cores, NoC, bridges, power tree,
// machine lifecycle) emits into when — and only when — a recorder is
// attached to the kernel.
//
// The package is a dependency leaf: it imports nothing from the rest
// of the repository, so internal/sim can hold a *Recorder directly and
// every component reaches the recorder through its kernel. Timestamps
// are the kernel's integer picoseconds; component identity travels as
// a small integer (topology node id, power-board index, or -1 for
// machine-scoped events) so an Event is a fixed-size value with no
// pointers, strings, or interfaces — emitting one is a few stores into
// a preallocated slice.
//
// When no recorder is attached the hot paths pay one pointer load and
// one branch; that path is pinned at zero allocations by tests in this
// package and in internal/core.
package trace

import (
	"fmt"
	"sync"
)

// Kind identifies the event type. The numeric values are part of the
// text-timeline golden format; append new kinds, never renumber.
type Kind uint8

const (
	// KindKernelEvent is one kernel dispatch: an event popped off the
	// ladder queue and fired. A = kernel sequence number, B = 1 when
	// the event is a Waker timer fire, 0 for a closure event.
	KindKernelEvent Kind = iota + 1
	// KindTurboBatch is a span covering one turbo run-to-horizon
	// batch. Src = node of the core that opened the batch, A = total
	// instructions issued in the batch, B = issue slots consumed.
	KindTurboBatch
	// KindThreadState is a thread scheduling transition. A = thread
	// index, B = new state (xs1 thread-state enum value).
	KindThreadState
	// KindChanBlock is a thread blocking on a channel end. A = thread
	// index, B = channel-end resource id.
	KindChanBlock
	// KindChanWake is a channel end waking a blocked thread. Src =
	// switch node, A = channel-end index on that switch.
	KindChanWake
	// KindTokenHop is a token delivered across a link into a switch
	// input port. Src = destination switch node, A = token value
	// byte, B = 1 for a control token.
	KindTokenHop
	// KindCreditReturn is a flow-control credit arriving back at a
	// link. Src = destination switch node (link identity), A = credits
	// banked after the return.
	KindCreditReturn
	// KindPowerSample is one power-tree sample. Src = board index,
	// A = Float64bits of total input power in watts.
	KindPowerSample
	// KindPowerState is an operating-point change on a core. A =
	// frequency in kHz, B = VDD in millivolts.
	KindPowerState
	// KindEnergyAccrual is a core banking accumulated instruction
	// energy into its supply. A = Float64bits of the banked joules,
	// B = instructions covered by the accrual.
	KindEnergyAccrual
	// KindSnapshot is Machine.Snapshot. A = live kernel slots captured.
	KindSnapshot
	// KindRestore is Machine.Restore. A = dirty SRAM bytes re-copied.
	KindRestore
	// KindCheckout is a machine leaving Env.Checkout. A = 1 when it
	// came through a pool, 0 for a fresh build.
	KindCheckout
	// KindRelease is the checkout's release func returning the
	// machine (to the pool or to the collector).
	KindRelease
	// KindBridgeTx is the host bridge transmitting a byte toward the
	// grid. Src = bridge node, A = payload bytes sent so far.
	KindBridgeTx
	// KindBridgeRx is the host bridge receiving a byte from the grid.
	// Src = bridge node, A = payload bytes received so far.
	KindBridgeRx

	kindMax
)

// kindNames are the stable text-timeline names, indexed by Kind.
var kindNames = [kindMax]string{
	KindKernelEvent:   "kernel-event",
	KindTurboBatch:    "turbo-batch",
	KindThreadState:   "thread-state",
	KindChanBlock:     "chan-block",
	KindChanWake:      "chan-wake",
	KindTokenHop:      "token-hop",
	KindCreditReturn:  "credit-return",
	KindPowerSample:   "power-sample",
	KindPowerState:    "power-state",
	KindEnergyAccrual: "energy-accrual",
	KindSnapshot:      "snapshot",
	KindRestore:       "restore",
	KindCheckout:      "checkout",
	KindRelease:       "release",
	KindBridgeTx:      "bridge-tx",
	KindBridgeRx:      "bridge-rx",
}

// argNames label the A/B payloads per kind for both exporters.
var argNames = [kindMax][2]string{
	KindKernelEvent:   {"seq", "waker"},
	KindTurboBatch:    {"instrs", "slots"},
	KindThreadState:   {"thread", "state"},
	KindChanBlock:     {"thread", "resource"},
	KindChanWake:      {"chanend", ""},
	KindTokenHop:      {"value", "ctrl"},
	KindCreditReturn:  {"credits", ""},
	KindPowerSample:   {"input_w", ""},
	KindPowerState:    {"freq_khz", "vdd_mv"},
	KindEnergyAccrual: {"joules", "instrs"},
	KindSnapshot:      {"slots", ""},
	KindRestore:       {"dirty_bytes", ""},
	KindCheckout:      {"pooled", ""},
	KindRelease:       {"", ""},
	KindBridgeTx:      {"bytes_total", ""},
	KindBridgeRx:      {"bytes_total", ""},
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SrcMachine marks events scoped to the whole machine (kernel
// dispatches, snapshots, lifecycle) rather than one component.
const SrcMachine int32 = -1

// Event is one recorded occurrence. TS and TS2 are kernel picoseconds;
// TS2 is zero for instants and the span end for KindTurboBatch. Src
// identifies the emitting component (node id, board index, or
// SrcMachine). A and B are kind-specific payloads; float payloads
// travel as math.Float64bits.
type Event struct {
	TS   int64
	TS2  int64
	A    int64
	B    int64
	Src  int32
	Kind Kind
}

// DefaultEventCap is the per-machine ring capacity used by the drivers
// when the caller does not choose one.
const DefaultEventCap = 1 << 16

// Recorder is a fixed-capacity ring buffer of events. It is attached
// to exactly one sim.Kernel at a time and is not safe for concurrent
// emitters — the kernel's single-threaded event loop is the only
// writer, which is also what makes recordings deterministic.
type Recorder struct {
	buf   []Event
	mask  uint64
	total uint64
}

// NewRecorder allocates a recorder holding up to capacity events
// (rounded up to a power of two, minimum 1024). Once full, the ring
// keeps the newest events and counts the overwritten ones as dropped.
func NewRecorder(capacity int) *Recorder {
	n := uint64(1024)
	for int(n) < capacity {
		n <<= 1
	}
	return &Recorder{buf: make([]Event, n), mask: n - 1}
}

// Emit records an instant event. Safe to call on a nil receiver — the
// nil fast path is a single branch and never allocates.
func (r *Recorder) Emit(ts int64, k Kind, src int32, a, b int64) {
	if r == nil {
		return
	}
	r.buf[r.total&r.mask] = Event{TS: ts, A: a, B: b, Src: src, Kind: k}
	r.total++
}

// EmitSpan records an event covering [ts, ts2]. Safe on nil.
func (r *Recorder) EmitSpan(ts, ts2 int64, k Kind, src int32, a, b int64) {
	if r == nil {
		return
	}
	r.buf[r.total&r.mask] = Event{TS: ts, TS2: ts2, A: a, B: b, Src: src, Kind: k}
	r.total++
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.total > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(r.total)
}

// Dropped reports events overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if r.total > uint64(len(r.buf)) {
		return r.total - uint64(len(r.buf))
	}
	return 0
}

// Events returns the retained events oldest-first as a fresh slice.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := r.Len()
	out := make([]Event, n)
	if r.total <= uint64(len(r.buf)) {
		copy(out, r.buf[:n])
		return out
	}
	start := r.total & r.mask
	copy(out, r.buf[start:])
	copy(out[len(r.buf)-int(start):], r.buf[:start])
	return out
}

// Recording is one machine's collected event stream, detached from
// its ring. Index is the checkout order within the session.
type Recording struct {
	Index   int
	Events  []Event
	Dropped uint64
}

// Session collects the recordings of the machines one traced run
// checks out. It is a plain value: the run's core.Env carries it,
// checkout attaches a recorder from it and release files the recording
// back, so any number of sessions are live at once and none sees
// another's machines. A nil *Session is the untraced run.
type Session struct {
	mu   sync.Mutex
	cap  int
	recs []*Recording
}

// NewSession returns a session recording up to eventCap events per
// machine (0 means DefaultEventCap).
func NewSession(eventCap int) *Session {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	return &Session{cap: eventCap}
}

// Attach returns a fresh recorder for one machine, or nil on a nil
// session.
func (s *Session) Attach() *Recorder {
	if s == nil {
		return nil
	}
	return NewRecorder(s.cap)
}

// Collect files a recorder's events into the session. A nil recorder
// or a nil session is a no-op.
func (s *Session) Collect(r *Recorder) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	s.recs = append(s.recs, &Recording{
		Index:   len(s.recs),
		Events:  r.Events(),
		Dropped: r.Dropped(),
	})
	s.mu.Unlock()
}

// Recordings returns the collected recordings in checkout order.
func (s *Session) Recordings() []*Recording {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Recording, len(s.recs))
	copy(out, s.recs)
	return out
}

// TotalEvents sums retained events across recordings.
func (s *Session) TotalEvents() int {
	n := 0
	for _, rec := range s.Recordings() {
		n += len(rec.Events)
	}
	return n
}
