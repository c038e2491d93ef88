package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRecorderRing exercises the ring-buffer mechanics: capacity
// rounding, wrap-around retention of the newest events, and the
// dropped counter.
func TestRecorderRing(t *testing.T) {
	r := NewRecorder(10) // rounds up to the 1024 minimum
	if got := len(r.buf); got != 1024 {
		t.Fatalf("NewRecorder(10) capacity = %d, want 1024", got)
	}
	const n = 1500
	for i := 0; i < n; i++ {
		r.Emit(int64(i), KindKernelEvent, SrcMachine, int64(i), 0)
	}
	if r.total != n {
		t.Errorf("total = %d, want %d", r.total, n)
	}
	if r.Len() != 1024 {
		t.Errorf("Len = %d, want 1024", r.Len())
	}
	if r.Dropped() != n-1024 {
		t.Errorf("Dropped = %d, want %d", r.Dropped(), n-1024)
	}
	evs := r.Events()
	if len(evs) != 1024 {
		t.Fatalf("Events len = %d, want 1024", len(evs))
	}
	// Oldest retained event is n-1024; order must be strictly oldest
	// first despite the wrap.
	for i, ev := range evs {
		if want := int64(n - 1024 + i); ev.TS != want {
			t.Fatalf("Events[%d].TS = %d, want %d", i, ev.TS, want)
		}
	}
}

// TestNilRecorderZeroAlloc pins the trace-disabled fast path: Emit and
// EmitSpan on a nil recorder must not allocate.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(1, KindKernelEvent, SrcMachine, 2, 3)
		r.EmitSpan(1, 2, KindTurboBatch, 0, 4, 5)
	})
	if allocs != 0 {
		t.Errorf("nil-recorder Emit allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestAttachedRecorderZeroAlloc pins the trace-enabled steady state:
// once the ring exists, emitting into it must not allocate either.
func TestAttachedRecorderZeroAlloc(t *testing.T) {
	r := NewRecorder(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(1, KindKernelEvent, SrcMachine, 2, 3)
	})
	if allocs != 0 {
		t.Errorf("attached-recorder Emit allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestSessionsIndependent verifies that sessions are plain values: two
// are live at once, each files only the recorders handed to it, and a
// nil session is the untraced run.
func TestSessionsIndependent(t *testing.T) {
	var none *Session
	if r := none.Attach(); r != nil {
		t.Fatal("Attach on a nil session should return nil")
	}
	none.Collect(NewRecorder(0))
	a, b := NewSession(0), NewSession(0)
	ra, rb := a.Attach(), b.Attach()
	if ra == nil || rb == nil || ra == rb {
		t.Fatalf("two live sessions attached %p and %p, want two recorders", ra, rb)
	}
	ra.Emit(1, KindCheckout, SrcMachine, 1, 0)
	rb.Emit(2, KindCheckout, SrcMachine, 0, 0)
	rb.Emit(3, KindRelease, SrcMachine, 0, 0)
	a.Collect(ra)
	b.Collect(rb)
	a.Collect(nil)
	if len(a.Recordings()) != 1 || a.TotalEvents() != 1 {
		t.Errorf("session a holds %d recordings / %d events, want 1 / 1", len(a.Recordings()), a.TotalEvents())
	}
	if len(b.Recordings()) != 1 || b.TotalEvents() != 2 {
		t.Errorf("session b holds %d recordings / %d events, want 1 / 2", len(b.Recordings()), b.TotalEvents())
	}
}

// fillSession builds a session with one synthetic recording covering
// every track domain and both exporter event shapes.
func fillSession() *Session {
	s := NewSession(0)
	r := s.Attach()
	r.Emit(100, KindCheckout, SrcMachine, 1, 0)
	r.Emit(200, KindKernelEvent, SrcMachine, 0, 0)
	r.EmitSpan(300, 900, KindTurboBatch, 0x11, 42, 3)
	r.Emit(400, KindThreadState, 0x11, 1, 2)
	r.Emit(500, KindTokenHop, 0x10, 0x5a, 1)
	r.Emit(600, KindPowerSample, 0, 4608308318706860032, 0) // Float64bits(1.25)
	r.Emit(700, KindBridgeTx, 0x20, 17, 0)
	r.Emit(800, KindRelease, SrcMachine, 0, 0)
	s.Collect(r)
	return s
}

// TestWriteChromeWellFormed validates the Chrome trace-event export:
// parseable JSON, the expected top-level shape, per-track metadata,
// and one row per recorded event.
func TestWriteChromeWellFormed(t *testing.T) {
	s := fillSession()
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	var meta, spans, counters, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur != 600 {
				t.Errorf("turbo-batch span dur = %v, want 600", ev.Dur)
			}
		case "C":
			counters++
			if w, ok := ev.Args["input_w"].(float64); !ok || w != 1.25 {
				t.Errorf("power-sample counter args = %v, want input_w=1.25", ev.Args)
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
	}
	if spans != 1 || counters != 1 {
		t.Errorf("spans=%d counters=%d, want 1 each", spans, counters)
	}
	if instants != 6 {
		t.Errorf("instants=%d, want 6", instants)
	}
	if meta == 0 {
		t.Error("no metadata rows: track naming is missing")
	}
	// Tracks: machine plus one per distinct (domain, src).
	names := strings.Join(collectMetaNames(buf.Bytes()), "\n")
	for _, want := range []string{"machine", "core n011", "switch n010", "board 0", "bridge n020"} {
		if !strings.Contains(names, want) {
			t.Errorf("metadata thread names missing %q (got:\n%s)", want, names)
		}
	}
}

// collectMetaNames pulls thread_name metadata values from an export.
func collectMetaNames(blob []byte) []string {
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	json.Unmarshal(blob, &doc)
	var out []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			out = append(out, ev.Args["name"])
		}
	}
	return out
}

// TestWriteTextDeterministic pins the golden exporter: the same
// session must serialize to identical bytes every time, and the format
// must carry the stable kind names and arg labels.
func TestWriteTextDeterministic(t *testing.T) {
	s := fillSession()
	var a, b bytes.Buffer
	if err := s.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two WriteText passes over one session differ")
	}
	for _, want := range []string{
		"# swallow trace: 1 recording(s)",
		"turbo-batch",
		"dur=600",
		"instrs=42",
		"input_w=1.25",
		"machine checkout pooled=1",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("text export missing %q:\n%s", want, a.String())
		}
	}
}
