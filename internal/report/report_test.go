package report

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "model", "latency(s)", "speedup")
	tb.AddRow("DeepSeek", 0.123456, 1.7)
	tb.AddRow("Mixtral", 1.5, 1.33)
	out := tb.String()
	if !strings.Contains(out, "## Demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "model") || !strings.Contains(lines[1], "speedup") {
		t.Fatalf("header wrong: %s", lines[1])
	}
	if !strings.Contains(out, "0.1235") {
		t.Fatalf("sub-1 float should use 4 decimals:\n%s", out)
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("1..100 float should use 3 decimals:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbbbbbb")
	tb.AddRow("xxxxxxxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// All lines should align: header starts with "a" padded to 10.
	if len(lines[0]) < 10 {
		t.Fatalf("header not padded: %q", lines[0])
	}
	if strings.Contains(out, "##") {
		t.Fatal("untitled table should omit title line")
	}
}

func TestTablePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero columns should panic")
			}
		}()
		NewTable("x")
	}()
	tb := NewTable("x", "a", "b")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong arity should panic")
			}
		}()
		tb.AddRow("only-one")
	}()
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(1.0, 2.0)
	var sb strings.Builder
	tb.RenderCSV(&sb)
	want := "a,b\n1.000,2.000\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.0123: "0.0123",
		5.5:    "5.500",
		123.45: "123.5",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Decode latency", "cache%")
	a := f.AddSeries("llama.cpp")
	b := f.AddSeries("HybriMoE")
	for _, x := range []float64{25, 50, 75} {
		a.AddPoint(x, x*2)
		b.AddPoint(x, x)
	}
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "llama.cpp") || !strings.Contains(out, "HybriMoE") {
		t.Fatalf("missing series:\n%s", out)
	}
	if !strings.Contains(out, "cache%") {
		t.Fatalf("missing x label:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, sep, 3 data rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestFigureRaggedSeries(t *testing.T) {
	f := NewFigure("r", "x")
	a := f.AddSeries("full")
	b := f.AddSeries("short")
	a.AddPoint(1, 10)
	a.AddPoint(2, 20)
	b.AddPoint(1, 11)
	var sb strings.Builder
	f.Render(&sb) // must not panic on the missing point
	if !strings.Contains(sb.String(), "20.00") && !strings.Contains(sb.String(), "20.000") {
		t.Fatalf("long series data lost:\n%s", sb.String())
	}
}

func TestEmptyFigure(t *testing.T) {
	f := NewFigure("empty", "x")
	var sb strings.Builder
	f.Render(&sb)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty figure should still render header")
	}
}

func TestLatencies(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	var live Live
	for _, x := range xs {
		live.Add(x)
	}
	l := live.Stats()
	if l.N != 100 {
		t.Fatalf("N = %d", l.N)
	}
	if l.Mean != 50.5 {
		t.Fatalf("mean = %v", l.Mean)
	}
	if l.P50 > l.P95 || l.P95 > l.P99 {
		t.Fatalf("percentiles not ordered: %+v", l)
	}
	if l.P50 < 49 || l.P50 > 52 {
		t.Fatalf("p50 = %v, want ~50.5", l.P50)
	}
	if l.P99 < 98 || l.P99 > 100 {
		t.Fatalf("p99 = %v, want ~99", l.P99)
	}
	if s := l.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestLatenciesEmpty(t *testing.T) {
	var live Live
	if l := live.Stats(); l != (LatencyStats{}) {
		t.Fatalf("empty sample should yield zero stats, got %+v", l)
	}
}

// latencies is the reference summary Live is checked against, written
// independently of it: the mean summed left to right in insertion order,
// and each percentile read off a sorted copy, interpolated linearly
// between the order statistics either side of q*(n-1).
func latencies(xs []float64) LatencyStats {
	if len(xs) == 0 {
		return LatencyStats{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	quantile := func(q float64) float64 {
		pos := q * float64(len(sorted)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		if lo == hi {
			return sorted[lo]
		}
		frac := pos - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return LatencyStats{
		N:    len(xs),
		Mean: sum / float64(len(xs)),
		P50:  quantile(0.50),
		P95:  quantile(0.95),
		P99:  quantile(0.99),
	}
}

// TestLiveMatchesLatencies pins the accumulator's contract: however
// often it is queried between adds, Live.Stats equals the batch summary
// of the same observations exactly (same interpolation, same summation
// order), and the zero value matches the empty-sample zero LatencyStats.
func TestLiveMatchesLatencies(t *testing.T) {
	var zero Live
	if zero.Stats() != (LatencyStats{}) {
		t.Fatalf("zero-value Live = %+v, want zero stats", zero.Stats())
	}
	// Query every add, every few adds, and only at the end: both the
	// insertion path and the full-sort path must agree with the batch.
	for _, every := range []int{1, 3, 10, 1000} {
		var live Live
		var xs []float64
		for i := 0; i < 57; i++ {
			// Deterministic scrambled insertion order with duplicates.
			x := float64((i*37)%19) / 7
			live.Add(x)
			xs = append(xs, x)
			if (i+1)%every != 0 && i != 56 {
				continue
			}
			if got, want := live.Stats(), latencies(xs); got != want {
				t.Fatalf("querying every %d, after %d adds: Live %+v != batch %+v", every, i+1, got, want)
			}
		}
	}
}

// TestLiveDuplicateHeavySamples stresses the binary-search insertion at
// equal keys: a feed dominated by a handful of repeated values — the
// shape a steady server's latency stream actually has — must keep Live
// and the batch summary in exact agreement however the duplicates interleave,
// including all-identical samples where every percentile collapses to
// the one value.
func TestLiveDuplicateHeavySamples(t *testing.T) {
	var live Live
	var xs []float64
	// Three values, heavily repeated, interleaved in a fixed scrambled
	// order; sort.SearchFloat64s lands on the leftmost equal slot, so
	// every insertion exercises the equal-key copy path.
	vals := []float64{0.25, 0.125, 0.25, 0.5, 0.25, 0.125}
	for i := 0; i < 120; i++ {
		x := vals[(i*7)%len(vals)]
		live.Add(x)
		xs = append(xs, x)
		got, want := live.Stats(), latencies(xs)
		if got != want {
			t.Fatalf("after %d duplicate-heavy adds: Live %+v != batch %+v", i+1, got, want)
		}
	}

	var flat Live
	for i := 0; i < 40; i++ {
		flat.Add(0.0625)
	}
	got := flat.Stats()
	if got.N != 40 || got.Mean != 0.0625 || got.P50 != 0.0625 || got.P95 != 0.0625 || got.P99 != 0.0625 {
		t.Fatalf("all-identical sample summarised to %+v, want every statistic 0.0625", got)
	}
}
