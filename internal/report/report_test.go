package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Table X", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long", "22")
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All table lines are equal width (aligned columns).
	w := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != w {
			t.Errorf("misaligned line %q", l)
		}
	}
	if !strings.Contains(out, "beta-long | 22") {
		t.Errorf("row content wrong:\n%s", out)
	}
}

func TestTableRowShapeTolerance(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "extra-dropped")
	out := tb.String()
	if strings.Contains(out, "extra-dropped") {
		t.Error("extra cell not dropped")
	}
	if !strings.Contains(out, "only-one") {
		t.Error("short row lost")
	}
}

func TestSeriesAndCSV(t *testing.T) {
	a := &Series{Name: "active"}
	b := &Series{Name: "idle"}
	for f := 100.0; f <= 300; f += 100 {
		a.Add(f, 46+0.3*f)
		b.Add(f, 46+0.134*f)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, "freq_mhz", a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "freq_mhz,active,idle" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Errorf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "100,76,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestCSVErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, "x"); err == nil {
		t.Error("empty series list accepted")
	}
	a := &Series{Name: "a"}
	a.Add(1, 2)
	b := &Series{Name: "b"}
	if err := WriteCSV(&sb, "x", a, b); err == nil {
		t.Error("mismatched series lengths accepted")
	}
}

func TestFormatSI(t *testing.T) {
	cases := []struct {
		v float64
		s string
	}{
		{62.5e6, "62.5M"},
		{5e6, "5M"},
		{2e9, "2G"},
		{1500, "1.5k"},
		{3, "3"},
		{0, "0"},
		{0.0132, "13.2m"},
		{5.6e-12, "5.6p"},
		{212.8e-12, "212.8p"},
		{1.4e-3, "1.4m"},
		{70e-9, "70n"},
		{31e-6, "31u"},
	}
	for _, c := range cases {
		if got := FormatSI(c.v); got != c.s {
			t.Errorf("FormatSI(%v) = %q, want %q", c.v, got, c.s)
		}
	}
}
