package exp

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// renderString renders a result to a string for byte comparison.
func renderString(r Renderable) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// The determinism claim: a grid's rendered output is a pure function of
// its inputs, independent of runCells' worker count. The open-loop and
// fleet studies are the two with serial calibration prologues and the
// largest grids, so they exercise the runner hardest; Fig 8 and Fig 9
// overlap cells of the paper's own grids.
func TestStudyWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	grids := []struct {
		name string
		run  func(Params) Renderable
	}{
		{"open-loop", func(p Params) Renderable { return OpenLoopStudy(p, 4, 0.25) }},
		{"serving-policy", func(p Params) Renderable { return ServingPolicyStudy(p, 4, 0.25) }},
		{"fleet", func(p Params) Renderable { return FleetStudy(p, 5, []int{2}, 0.25) }},
		{"fig8", func(p Params) Renderable { tbl, _ := Fig8(p); return tbl }},
		{"fig9", func(p Params) Renderable { p.HitRateIters = 12; return Fig9(p) }},
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			var want string
			for _, workers := range counts {
				p := QuickParams()
				p.Workers = workers
				got := renderString(g.run(p))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("workers=%d rendered different bytes than workers=%d:\n%s\n--- vs ---\n%s",
						workers, counts[0], got, want)
				}
			}
		})
	}
}

// runCells must execute every cell exactly once and slot results in
// grid order regardless of completion order.
func TestRunStudySlotsResultsInGridOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var runs atomic.Int64
		cells := make([]Cell, 23)
		for i := range cells {
			cells[i] = func() []Row {
				runs.Add(1)
				return []Row{{i}}
			}
		}
		p := QuickParams()
		p.Workers = workers
		results := runCells(p, cells)
		if got := runs.Load(); got != 23 {
			t.Fatalf("workers=%d ran %d cells, want 23", workers, got)
		}
		if len(results) != 23 {
			t.Fatalf("workers=%d returned %d slots, want 23", workers, len(results))
		}
		for i, rows := range results {
			if len(rows) != 1 || rows[0][0] != i {
				t.Fatalf("workers=%d slot %d holds %v, want cell %d's row", workers, i, rows, i)
			}
		}
	}
}

// A panicking cell must surface on the caller's goroutine, not crash a
// worker.
func TestRunStudyPropagatesCellPanic(t *testing.T) {
	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = func() []Row {
			if i == 3 {
				panic("cell 3 exploded")
			}
			return []Row{{i}}
		}
	}
	p := QuickParams()
	p.Workers = 4
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cell panic did not propagate")
		}
		if msg, ok := r.(string); !ok || msg != "cell 3 exploded" {
			t.Fatalf("propagated %v, want the cell's panic value", r)
		}
	}()
	runCells(p, cells)
}
