package exp

import (
	"strings"
	"testing"

	"hybrimoe/internal/workload"
)

// Acceptance pin: expert-parallel on the dual-A6000 preset must beat
// the single-GPU baseline (hybrimoe on one A6000 — the pre-refactor
// configuration) on decode throughput.
func TestPlacementDualExpertParallelBeatsSingleGPU(t *testing.T) {
	p := QuickParams()
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(6)
	workload.CapDecode(reqs, p.DecodeSteps)

	single := drivePlacement(p, 1, "hybrimoe", 0.25, reqs)
	dual := drivePlacement(p, 2, "expert-parallel", 0.25, reqs)
	if dual.DecodeThroughput() <= single.DecodeThroughput() {
		t.Fatalf("dual expert-parallel %.2f tok/s should beat single-GPU baseline %.2f tok/s",
			dual.DecodeThroughput(), single.DecodeThroughput())
	}
}

// Single-GPU planners are topology-invariant: hybrimoe on a dual
// platform is confined to GPU0 and reproduces its single-GPU run
// exactly, leaving the second device idle.
func TestPlacementSingleGPUPlannerTopologyInvariant(t *testing.T) {
	p := QuickParams()
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(4)
	workload.CapDecode(reqs, p.DecodeSteps)

	single := drivePlacement(p, 1, "hybrimoe", 0.25, reqs)
	dual := drivePlacement(p, 2, "hybrimoe", 0.25, reqs)
	if single.Makespan != dual.Makespan || single.DecodeTokens != dual.DecodeTokens {
		t.Fatalf("hybrimoe run changed with an idle extra GPU: %v/%d vs %v/%d",
			single.Makespan, single.DecodeTokens, dual.Makespan, dual.DecodeTokens)
	}
	if dual.gpuBusy[1] != 0 {
		t.Fatalf("single-GPU planner used GPU1 for %v seconds", dual.gpuBusy[1])
	}
}

func TestPlacementStudyRenders(t *testing.T) {
	tbl := PlacementStudy(QuickParams(), 3)
	var b strings.Builder
	tbl.Render(&b)
	out := b.String()
	for _, want := range []string{"expert-parallel", "per-GPU-util", "hybrimoe"} {
		if !strings.Contains(out, want) {
			t.Fatalf("placement table missing %q:\n%s", want, out)
		}
	}
}
