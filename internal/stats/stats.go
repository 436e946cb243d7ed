// Package stats provides the tabular reporting used to regenerate the
// paper's tables and figures as text: fixed set of columns, one row per
// benchmark or configuration, aligned plain-text rendering, and small
// aggregation helpers (geometric/arithmetic means over normalized IPC).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
	Notes []string
}

// TryAddRow appends a row, rejecting arity mismatches with an error that
// names the table. Dynamically assembled rows (figure grids, sweeps) use
// this so a malformed row fails the run with context.
func (t *Table) TryAddRow(cells ...string) error {
	if len(cells) != len(t.Cols) {
		return fmt.Errorf("stats: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Cols))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// AddRow appends a row whose arity is statically known; mismatches panic
// early (they are programming errors at the call site).
func (t *Table) AddRow(cells ...string) {
	if err := t.TryAddRow(cells...); err != nil {
		panic(err.Error())
	}
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Cols)
	total := len(t.Cols)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// F formats a float with 3 decimals, the figures' usual precision.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Mean returns the arithmetic mean; 0 for empty input.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Duration pretty-prints a time in seconds with an adaptive unit, used for
// Table 2's "estimated time to overflow" column (seconds to millennia).
func Duration(seconds float64) string {
	switch {
	case seconds == math.Inf(1):
		return "never"
	case seconds < 1:
		return fmt.Sprintf("%.2f s", seconds)
	case seconds < 120:
		return fmt.Sprintf("%.1f s", seconds)
	case seconds < 2*3600:
		return fmt.Sprintf("%.1f min", seconds/60)
	case seconds < 2*86400:
		return fmt.Sprintf("%.1f hr", seconds/3600)
	case seconds < 2*31557600:
		return fmt.Sprintf("%.1f days", seconds/86400)
	case seconds < 2000*31557600:
		return fmt.Sprintf("%.1f yr", seconds/31557600)
	default:
		return fmt.Sprintf("%.0f millennia", seconds/(31557600*1000))
	}
}
