package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// maxKeptSpans bounds the spans one tracer keeps for the trace file;
// beyond it spans still feed the per-name aggregates (serve-warm
// records several hundred thousand in a run).
const maxKeptSpans = 40000

// span is one recorded interval: a call from bench/ into a layer.
// Times are nanoseconds since the tracer's epoch; parent is an index
// into the same tracer's spans, -1 at the root.
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64
}

// spanAgg totals every span of one name. Self time is a span's
// duration minus the part its child spans cover.
type spanAgg struct {
	count         int64
	total, selfNs int64
}

// frame is one open span on the tracer's stack.
type frame struct {
	name    string
	op      int32
	start   int64
	childNs int64
	idx     int32 // index into spans, -1 once the cap is reached
}

// tracer records spans for one client goroutine; it is not shared, so
// recording takes no lock. Every method is a no-op on a nil tracer,
// which is how untraced ops run.
type tracer struct {
	epoch time.Time
	spans []span
	stack []frame
	agg   map[string]*spanAgg
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, agg: make(map[string]*spanAgg)}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, op int) {
	if t == nil {
		return
	}
	f := frame{name: name, op: int32(op), start: int64(time.Since(t.epoch)), idx: -1}
	if len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, op: f.op, parent: parent, start: f.start})
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
	t.account(f.name, now-f.start, f.childNs)
}

// child adds a span of known duration under the innermost open span:
// the server's own split of a request, read back from its response
// headers. It is laid out after the children already recorded.
func (t *tracer) child(name string, d time.Duration) {
	if t == nil || d <= 0 || len(t.stack) == 0 {
		return
	}
	p := &t.stack[len(t.stack)-1]
	if len(t.spans) < maxKeptSpans {
		start := p.start + p.childNs
		t.spans = append(t.spans, span{name: name, op: p.op, parent: p.idx, start: start, end: start + int64(d)})
	}
	t.account(name, int64(d), 0)
}

// account books one closed span into the aggregates and into its
// parent's child time.
func (t *tracer) account(name string, dur, childNs int64) {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.count++
	a.total += dur
	if self := dur - childNs; self > 0 {
		a.selfNs += self
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNs += dur
	}
}

// mergeSpans sums the aggregates of several tracers.
func mergeSpans(ts []*tracer) map[string]spanAgg {
	out := make(map[string]spanAgg)
	for _, t := range ts {
		if t == nil {
			continue
		}
		for name, a := range t.agg {
			m := out[name]
			m.count += a.count
			m.total += a.total
			m.selfNs += a.selfNs
			out[name] = m
		}
	}
	return out
}

// chromeEvent is one row of the Chrome trace-event format Perfetto
// loads (the format internal/trace exports the simulator's own
// recordings in).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the kept spans of every tracer, one thread per
// client.
func writeChrome(path string, ts []*tracer) error {
	var events []chromeEvent
	for tid, t := range ts {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			events = append(events, chromeEvent{
				Name: s.name, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: tid + 1,
				Args: map[string]int{"op": int(s.op), "span": i, "parent": int(s.parent)},
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
