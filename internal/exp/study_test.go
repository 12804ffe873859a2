package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// renderString renders a study result to a string for byte comparison.
func renderString(r Renderable) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// The tentpole determinism claim: a study's rendered output is a pure
// function of its inputs, independent of the sweep runner's worker
// count. The open-loop and fleet studies are the two with serial
// calibration prologues and the largest grids, so they exercise the
// runner hardest.
func TestStudyWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	studies := []Study{
		openLoopStudy{requests: 4, ratio: 0.25},
		servingPolicyStudy{requests: 4, ratio: 0.25},
		fleetStudy{requests: 5, replicaCounts: []int{2}, ratio: 0.25},
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, s := range studies {
		t.Run(s.ID(), func(t *testing.T) {
			t.Parallel()
			var want string
			for _, workers := range counts {
				p := QuickParams()
				p.Workers = workers
				got := renderString(RunStudy(s, p))
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

// The runner must execute every cell exactly once and slot results in
// grid order regardless of completion order.
type recordingStudy struct {
	cells int
	runs  *atomic.Int64
}

func (recordingStudy) ID() string       { return "recording" }
func (recordingStudy) Describe() string { return "test double" }

func (s recordingStudy) Cells(Params) []Cell {
	cells := make([]Cell, s.cells)
	for i := range cells {
		cells[i] = Cell{Label: "cell", Run: func() []Row {
			s.runs.Add(1)
			return []Row{{i}}
		}}
	}
	return cells
}

func (s recordingStudy) Render(_ Params, results [][]Row) Renderable {
	return tableFromCells("recording", []string{"i"}, results)
}

func TestRunStudySlotsResultsInGridOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		s := recordingStudy{cells: 23, runs: &atomic.Int64{}}
		p := QuickParams()
		p.Workers = workers
		out := renderString(RunStudy(s, p))
		if got := s.runs.Load(); got != 23 {
			t.Fatalf("workers=%d ran %d cells, want 23", workers, got)
		}
		// Rows must appear in ascending grid order.
		last := -1
		for _, line := range strings.Split(out, "\n") {
			var i int
			if _, err := fmt.Sscan(line, &i); err != nil {
				continue
			}
			if i != last+1 {
				t.Fatalf("workers=%d rows out of grid order: %d after %d\n%s", workers, i, last, out)
			}
			last = i
		}
		if last != 22 {
			t.Fatalf("workers=%d rendered rows 0..%d, want 0..22", workers, last)
		}
	}
}

// A panicking cell must surface on the caller's goroutine, not crash a
// worker.
func TestRunStudyPropagatesCellPanic(t *testing.T) {
	s := panickyStudy{}
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
	RunStudy(s, p)
}

type panickyStudy struct{}

func (panickyStudy) ID() string       { return "panicky" }
func (panickyStudy) Describe() string { return "test double" }

func (panickyStudy) Cells(Params) []Cell {
	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = Cell{Label: "cell", Run: func() []Row {
			if i == 3 {
				panic("cell 3 exploded")
			}
			return []Row{{i}}
		}}
	}
	return cells
}

func (panickyStudy) Render(_ Params, results [][]Row) Renderable {
	return tableFromCells("panicky", []string{"i"}, results)
}

// CellSeed must derive distinct, entry-point-stable seeds per cell.
func TestCellSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := CellSeed(2025, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("CellSeed(2025, %d) == CellSeed(2025, %d)", i, prev)
		}
		seen[s] = i
		if again := CellSeed(2025, i); again != s {
			t.Fatalf("CellSeed(2025, %d) unstable: %d then %d", i, s, again)
		}
	}
	if CellSeed(2025, 0) != 2025 {
		t.Fatal("CellSeed(base, 0) must equal base, matching ReplicaSeed")
	}
}

// Studies' IDs must match their registry entries one-to-one.
func TestStudiesMatchRegistry(t *testing.T) {
	for _, s := range Studies() {
		e, err := Lookup(s.ID())
		if err != nil {
			t.Fatalf("study %q missing from registry: %v", s.ID(), err)
		}
		if e.Desc != s.Describe() {
			t.Fatalf("study %q description drifted: registry %q vs study %q",
				s.ID(), e.Desc, s.Describe())
		}
	}
}
