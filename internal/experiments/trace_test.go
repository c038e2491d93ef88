package experiments

import (
	"bytes"
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
// Env draws on nothing the rest of the process has touched.
func TestTraceDeterministicGolden(t *testing.T) {
	cfg := harness.QuickConfig()
	fig3 := harness.Lookup("fig3")
	if fig3 == nil {
		t.Fatal("fig3 artifact not registered")
	}
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
		return buf.Bytes()
	}

	first := record()
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
