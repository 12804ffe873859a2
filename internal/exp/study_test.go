package exp

import (
	"runtime"
	"strings"
	"testing"
)

// renderString renders a result to a string for byte comparison.
func renderString(r Renderable) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// The determinism claim: a grid's rendered output is a pure function of
// its inputs, independent of how many goroutines runCells fans its
// cells out to. The open-loop and fleet studies are the two with serial
// calibration prologues and the largest grids, so they exercise the
// runner hardest; Fig 8 and Fig 9 overlap cells of the paper's own
// grids. The grids run one after another, each under every GOMAXPROCS
// value, which is process-wide.
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
	start := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(start)
	counts := []int{1, 4, start}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			var want string
			for _, procs := range counts {
				runtime.GOMAXPROCS(procs)
				got := renderString(g.run(QuickParams()))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("GOMAXPROCS=%d rendered different bytes than GOMAXPROCS=%d:\n%s\n--- vs ---\n%s",
						procs, counts[0], got, want)
				}
			}
		})
	}
}
