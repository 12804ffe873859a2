package exp

import (
	"runtime"

	"hybrimoe/internal/par"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// Row is one rendered table row: the cell values AddRow receives, in
// column order.
type Row []interface{}

// Cell is one independently runnable point of a grid; it returns its
// rendered rows in order. A cell must be hermetic — it builds its own
// engines and touches no mutable state shared with sibling cells
// (read-only request slices are fine) — so runCells may execute cells
// concurrently in any order. Serial prologue work, such as calibration
// runs and deadline stamping, happens before the cells are built.
type Cell func() []Row

// runCells executes cells through par.Do on runtime.GOMAXPROCS(0)
// goroutines (serially under GOMAXPROCS=1) and returns each cell's rows
// in its grid slot. Results are identical for every worker count: cells
// are hermetic and their rows land in grid order, not completion order.
// Once a cell panics no further cell starts, and the panic re-panics on
// the caller's goroutine after the running cells return.
func runCells(cells []Cell) [][]Row {
	results := make([][]Row, len(cells))
	par.Do(runtime.GOMAXPROCS(0), len(cells), func(i int) { results[i] = cells[i]() })
	return results
}

// tableFromCells assembles the standard grid rendering: one table, the
// cells' rows appended in grid order.
func tableFromCells(title string, cols []string, results [][]Row) *report.Table {
	t := report.NewTable(title, cols...)
	for _, rows := range results {
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t
}

// studyRequests draws the studies' request stream: n requests from the
// mixed corpus with decode capped at p.DecodeSteps, arriving as a
// Poisson process at rate, or all at once (closed loop) when rate is 0.
// Only the arrival stamps vary with the rate.
func studyRequests(p Params, n int, rate float64) []workload.Request {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	if rate > 0 {
		stream.WithArrivals(workload.Poisson(rate))
	}
	reqs := stream.NextN(n)
	workload.CapDecode(reqs, p.DecodeSteps)
	return reqs
}
