// Package report renders the tables and figure datasets the benchmark
// harness regenerates: fixed-width ASCII tables for terminal output and
// CSV series for plotting.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := 0; i < len(t.Headers) && i < len(cells); i++ {
		row[i] = cells[i]
	}
	t.Rows = append(t.Rows, row)
}

// widths computes per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		w[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := t.widths()
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	line(t.Headers)
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a named (x, y) dataset, one figure curve.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len reports the point count.
func (s *Series) Len() int { return len(s.X) }

// WriteCSV emits one or more aligned series sharing the x axis of the
// first series, in a gnuplot/spreadsheet-friendly layout.
func WriteCSV(w io.Writer, xLabel string, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series")
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			return fmt.Errorf("report: series %q has %d points, want %d", s.Name, s.Len(), n)
		}
	}
	cols := []string{xLabel}
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%g", series[0].X[i])}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%g", s.Y[i]))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	return nil
}

// FormatSI renders a value with an SI magnitude suffix, e.g. 62.5e6 ->
// "62.5M".
func FormatSI(v float64) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1e9:
		return trimZero(fmt.Sprintf("%.1fG", v/1e9))
	case abs >= 1e6:
		return trimZero(fmt.Sprintf("%.1fM", v/1e6))
	case abs >= 1e3:
		return trimZero(fmt.Sprintf("%.1fk", v/1e3))
	case abs >= 1 || abs == 0:
		return trimZero(fmt.Sprintf("%.1f", v))
	case abs >= 1e-3:
		return trimZero(fmt.Sprintf("%.1fm", v*1e3))
	case abs >= 1e-6:
		return trimZero(fmt.Sprintf("%.1fu", v*1e6))
	case abs >= 1e-9:
		return trimZero(fmt.Sprintf("%.1fn", v*1e9))
	default:
		return trimZero(fmt.Sprintf("%.1fp", v*1e12))
	}
}

func trimZero(s string) string {
	// "62.5M" stays; "5.0M" -> "5M".
	i := strings.Index(s, ".0")
	if i < 0 {
		return s
	}
	return s[:i] + s[i+2:]
}
