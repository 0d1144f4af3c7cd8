// Package stats formats experiment results into the paper's table layouts
// and provides small aggregation helpers shared by the experiment drivers
// and cmd/stbench.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cell counts beyond the header are allowed but will
// widen the table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row built from format/value pairs: each argument is
// rendered with %v unless it is a float64, which uses %.2f.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns a copy of the data rows, so a consumer can read cells
// without reparsing the rendered text.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for empty input). It is the 50th
// percentile: linear interpolation at the midpoint equals the mean of the
// two middle order statistics for even n.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile of xs (p in [0,100]) using linear
// interpolation between order statistics; 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	pos := p / 100 * float64(len(c)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c) {
		return c[lo]
	}
	return c[lo] + frac*(c[lo+1]-c[lo])
}

// Pct formats a fraction as a percentage with two decimals ("12.34").
func Pct(frac float64) string { return fmt.Sprintf("%.2f", frac*100) }
