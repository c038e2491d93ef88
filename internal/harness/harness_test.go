package harness

import (
	"fmt"
	"testing"

	"swallow/internal/report"
)

// register a throwaway artifact and strip it back out afterwards; the
// registry is package state shared with real registrations.
func registerTemp(t *testing.T, s Spec[int]) {
	t.Helper()
	Register(s)
	t.Cleanup(func() {
		for i, a := range registry {
			if a.Name == s.Name {
				registry = append(registry[:i], registry[i+1:]...)
				return
			}
		}
	})
}

func TestRegisterLookupAndOrder(t *testing.T) {
	before := len(registry)
	registerTemp(t, Spec[int]{
		Name: "test-a",
		Run:  func(cfg Config) (int, error) { return cfg.Iters * 2, nil },
		Render: func(v int) *report.Table {
			tb := report.NewTable("t", "v")
			tb.AddRow(fmt.Sprint(v))
			return tb
		},
		Metrics: func(v int) map[string]float64 {
			return map[string]float64{"b": 2, "a": 1}
		},
	})
	registerTemp(t, Spec[int]{
		Name:   "test-b",
		Run:    func(Config) (int, error) { return 0, fmt.Errorf("nope") },
		Render: func(int) *report.Table { return report.NewTable("t") },
	})

	if len(Artifacts()) != before+2 {
		t.Fatalf("registry grew by %d, want 2", len(Artifacts())-before)
	}
	names := Names()
	if names[len(names)-2] != "test-a" || names[len(names)-1] != "test-b" {
		t.Fatalf("registration order lost: %v", names[len(names)-2:])
	}
	if Lookup("test-a") == nil || Lookup("no-such") != nil {
		t.Fatal("Lookup misbehaves")
	}

	a := Lookup("test-a")
	tb, err := a.Table(Config{Iters: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || tb.Rows[0][0] != "42" {
		t.Fatalf("Table rendered %v", tb.Rows)
	}
	res, err := a.Run(Config{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ms := a.Metrics(res); len(ms) != 2 || ms["a"] != 1 || ms["b"] != 2 {
		t.Fatalf("Metrics = %v, want map[a:1 b:2]", ms)
	}

	b := Lookup("test-b")
	if _, err := b.Table(DefaultConfig()); err == nil {
		t.Fatal("Table swallowed the run error")
	}
	if b.Metrics != nil {
		t.Fatal("no Metrics hook registered, yet the artifact has one")
	}
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	registerTemp(t, Spec[int]{
		Name:   "test-dup",
		Run:    func(Config) (int, error) { return 0, nil },
		Render: func(int) *report.Table { return report.NewTable("t") },
	})
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate name", func() {
		Register(Spec[int]{
			Name:   "test-dup",
			Run:    func(Config) (int, error) { return 0, nil },
			Render: func(int) *report.Table { return report.NewTable("t") },
		})
	})
	mustPanic("missing run", func() {
		Register(Spec[int]{Name: "test-norun", Render: func(int) *report.Table { return nil }})
	})
	mustPanic("missing render", func() {
		Register(Spec[int]{Name: "test-norender", Run: func(Config) (int, error) { return 0, nil }})
	})
	mustPanic("empty name", func() {
		Register(Spec[int]{
			Run:    func(Config) (int, error) { return 0, nil },
			Render: func(int) *report.Table { return nil },
		})
	})
}

func TestProjectDropsUnreadKnobs(t *testing.T) {
	full := Config{Iters: 9}
	a := &Artifact{UsesIters: true}
	if got := a.Project(full); got.Iters != 9 {
		t.Fatalf("Project(UsesIters) = %+v", got)
	}
	a = &Artifact{} // reads nothing
	if got := a.Project(full); got.Iters != 0 {
		t.Fatalf("Project(none) = %+v", got)
	}
}

func TestDescriptionSurvivesRegistration(t *testing.T) {
	registerTemp(t, Spec[int]{
		Name:        "test-desc",
		Description: "a described artifact",
		Run:         func(Config) (int, error) { return 0, nil },
		Render:      func(int) *report.Table { return report.NewTable("t") },
	})
	if a := Lookup("test-desc"); a.Description != "a described artifact" {
		t.Fatalf("Description = %q", a.Description)
	}
}

func TestMetricName(t *testing.T) {
	if got := MetricName("one external link, 4 threads", "ns"); got != "one-external-link+-4-threads_ns" {
		t.Fatalf("MetricName = %q", got)
	}
}
