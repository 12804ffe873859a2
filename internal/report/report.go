// Package report renders experiment results as aligned ASCII tables and
// CSV, the formats the cmd/hybrimoe harness and EXPERIMENTS.md use.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// LatencyStats summarises a latency sample with the percentiles serving
// studies report alongside the mean: p50, p95 and p99.
type LatencyStats struct {
	N                   int
	Mean, P50, P95, P99 float64
}

// String renders the summary on one line.
func (l LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%.4gs p50=%.4gs p95=%.4gs p99=%.4gs",
		l.N, l.Mean, l.P50, l.P95, l.P99)
}

// Live accumulates latency observations and summarises them on demand.
// Add appends and keeps the running sum (in insertion order, so the mean
// is the plain left-to-right average); Stats orders whatever arrived
// since the last query. A sample read once at the end of a run costs one
// sort, and one polled between every few adds — what admission
// controllers do once per serving step — costs one binary insertion per
// new observation. The zero value is an empty, usable sample.
//
// Stats reorders the sample in place, so it mutates the receiver: a Live
// is not safe for concurrent use, reads included. Summarise it once
// before sharing the numbers across goroutines.
type Live struct {
	xs     []float64 // xs[:sorted] is ascending
	sorted int
	sum    float64
}

// Add folds in one observation.
func (l *Live) Add(x float64) {
	l.xs = append(l.xs, x)
	l.sum += x
}

// Stats summarises the observations so far; an empty sample yields the
// zero LatencyStats rather than NaN percentiles, so drained event
// streams with no observations render as zero rows. It sorts the sample
// in place; see Live for what that means for concurrent readers.
func (l *Live) Stats() LatencyStats {
	if len(l.xs) == 0 {
		return LatencyStats{}
	}
	l.order()
	return LatencyStats{
		N:    len(l.xs),
		Mean: l.sum / float64(len(l.xs)),
		P50:  quantileSorted(l.xs, 0.50),
		P95:  quantileSorted(l.xs, 0.95),
		P99:  quantileSorted(l.xs, 0.99),
	}
}

// order sorts the observations added since the last query into the
// sorted prefix: a full sort when most of the sample is new, binary
// insertion otherwise.
func (l *Live) order() {
	if 2*l.sorted < len(l.xs) {
		sort.Float64s(l.xs)
	} else {
		for i := l.sorted; i < len(l.xs); i++ {
			x := l.xs[i]
			j := sort.SearchFloat64s(l.xs[:i], x)
			copy(l.xs[j+1:i+1], l.xs[j:i])
			l.xs[j] = x
		}
	}
	l.sorted = len(l.xs)
}

// quantileSorted interpolates the q-th quantile of a sorted non-empty
// sample linearly between order statistics, as stats.Sample.Quantile
// does.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// Table accumulates rows with a fixed header and renders them aligned.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	if len(columns) == 0 {
		panic("report: table needs at least one column")
	}
	return &Table{Title: title, header: columns}
}

// AddRow appends a row; fmt.Sprint is applied to every cell. A row with
// the wrong arity panics — it is always a harness bug.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) != len(t.header) {
		panic(fmt.Sprintf("report: row has %d cells for %d columns", len(cells), len(t.header)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	case v >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// RenderCSV writes the table as CSV (no quoting; cells are numeric or
// simple identifiers by construction).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.header, ","))
	for _, row := range t.rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a named (x, y) sequence — one line of a paper figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddPoint appends one point.
func (s *Series) AddPoint(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing an x axis, rendered as a wide table
// (one row per x, one column per series).
type Figure struct {
	Title  string
	XLabel string
	Series []*Series
}

// NewFigure returns an empty figure.
func NewFigure(title, xlabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel}
}

// AddSeries appends a named series and returns it for point insertion.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render writes the figure as an aligned table, merging series on exact
// x values in the order points were added to the first series.
func (f *Figure) Render(w io.Writer) {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	t := NewTable(f.Title, cols...)
	if len(f.Series) == 0 {
		t.Render(w)
		return
	}
	for i, x := range f.Series[0].X {
		row := []interface{}{formatFloat(x)}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, s.Y[i])
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
}
