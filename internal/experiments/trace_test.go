package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"swallow/internal/core"
	"swallow/internal/harness"
	"swallow/internal/trace"
)

// TestTracingNeutralGolden is the observability contract at the
// artifact level: attaching the flight recorder must never change what
// the simulator computes. Every registered artifact is rendered under
// a traced Env and an untraced one, across the lifecycle modes that
// change how machines are built and scheduled — pooled and fresh,
// serial and parallel sweeps, turbo and exact — and each pair must be
// byte-identical. Every traced mode holds a live session of its own
// while the others run.
func TestTracingNeutralGolden(t *testing.T) {
	// One untraced baseline suffices for every mode: the lifecycle
	// contracts already hold the registry byte-identical across
	// pooled/fresh, seq/par and turbo/exact, so each traced pass below
	// must match this single reference.
	plain := renderRegistry(t, core.Env{Pool: core.SharedPool(), Width: 1})

	var modes []mode
	for _, m := range lifecycles(false) {
		modes = append(modes, m)
		m.name, m.env.Exact = m.name+",exact", true
		modes = append(modes, m)
	}
	eachMode(t, modes, func(t *testing.T, _ int, env core.Env) {
		env.Trace = trace.NewSession(0)
		traced := renderRegistry(t, env)
		if env.Trace.TotalEvents() == 0 {
			t.Error("traced registry pass recorded no events")
		}
		sameRegistry(t, "trace off", plain, "trace on", traced)
	})
}

// TestTraceDeterministicGolden pins the recording itself: tracing the
// same artifact twice must produce byte-identical text timelines — same
// machines, same checkout order, same event sequence with the same
// timestamps — whatever ran before or runs beside it, because a traced
// Env draws on nothing the rest of the process has touched. The first
// recording's Chrome export must load: valid JSON, known phases only,
// and every core track it names carrying events.
func TestTraceDeterministicGolden(t *testing.T) {
	cfg := harness.QuickConfig()
	fig3 := harness.Lookup("fig3")
	if fig3 == nil {
		t.Fatal("fig3 artifact not registered")
	}
	var chrome bytes.Buffer
	record := func() []byte {
		sess := trace.NewSession(0)
		cfg.Env = core.TracedEnv(sess)
		if _, err := fig3.Table(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if chrome.Len() == 0 {
			if err := sess.WriteChrome(&chrome); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	first := record()
	checkCoreTracks(t, chrome.Bytes())
	// In between, leave the shared pool's fig3 machines with a history.
	if _, err := fig3.Table(harness.QuickConfig()); err != nil {
		t.Fatal(err)
	}
	second := record()
	if len(first) == 0 || !bytes.Contains(first, []byte("checkout")) {
		t.Fatalf("trace capture looks empty:\n%s", first)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("tracing fig3 twice produced different timelines:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// checkCoreTracks holds a Chrome export of a live recording to what a
// viewer needs: it parses, every phase is metadata (M), span (X),
// counter (C) or instant (i), and every "core …" track carries events.
func checkCoreTracks(t *testing.T, blob []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			Pid, Tid int
			Args     struct{ Name string }
		}
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	type lane struct{ pid, tid int }
	events := map[lane]int{}
	var cores []lane
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" && strings.HasPrefix(ev.Args.Name, "core ") {
				cores = append(cores, lane{ev.Pid, ev.Tid})
			}
		case "X", "C", "i":
			events[lane{ev.Pid, ev.Tid}]++
		default:
			t.Fatalf("Chrome export has phase %q", ev.Ph)
		}
	}
	if len(cores) == 0 {
		t.Fatal("Chrome export names no core track")
	}
	for _, c := range cores {
		if events[c] == 0 {
			t.Errorf("core track pid %d tid %d carries no events", c.pid, c.tid)
		}
	}
}
