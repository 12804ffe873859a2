package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hybrimoe/internal/stats"
)

func TestDatasetSampleLengthBounds(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, d := range AllDatasets() {
		for i := 0; i < 2000; i++ {
			n := d.SampleLength(rng)
			if n < d.MinTokens || n > d.MaxTokens {
				t.Fatalf("%s sampled %d outside [%d, %d]", d.Name, n, d.MinTokens, d.MaxTokens)
			}
		}
	}
}

func TestDatasetMediansOrdered(t *testing.T) {
	rng := stats.NewRNG(2)
	median := func(d Dataset) float64 {
		xs := make([]float64, 4000)
		for i := range xs {
			xs[i] = float64(d.SampleLength(rng))
		}
		sort.Float64s(xs)
		return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	vb := median(VicunaBench())
	mt := median(MTBench())
	cg := median(ChatGPTPrompts())
	if !(vb < mt && mt < cg) {
		t.Fatalf("median ordering broken: vicuna %v, mt-bench %v, chatgpt %v", vb, mt, cg)
	}
	// Sanity: medians near the published scales.
	if math.Abs(mt-55) > 25 {
		t.Errorf("mt-bench median %v far from ≈55", mt)
	}
}

func TestBucketAssignsNearest(t *testing.T) {
	cases := map[int]int{
		1:    32,
		32:   32,
		60:   32, // log-nearest to 32 vs 128: sqrt(32*128)=64
		70:   128,
		128:  128,
		250:  128, // below the sqrt(128*512)=256 boundary
		260:  512, // above it
		200:  128,
		512:  512,
		720:  512, // sqrt(512*1024)=724 boundary
		730:  1024,
		4096: 1024,
	}
	for tokens, want := range cases {
		if got := Bucket(tokens); got != want {
			t.Errorf("Bucket(%d) = %d, want %d", tokens, got, want)
		}
	}
}

func TestBucketPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bucket(0) should panic")
		}
	}()
	Bucket(0)
}

func TestSampleBucketedCoversPaperGrid(t *testing.T) {
	rng := stats.NewRNG(3)
	counts := ChatGPTPrompts().SampleBucketed(rng, 5000)
	total := 0
	for b, c := range counts {
		total += c
		found := false
		for _, pb := range PaperBuckets {
			if b == pb {
				found = true
			}
		}
		if !found {
			t.Fatalf("unknown bucket %d", b)
		}
	}
	if total != 5000 {
		t.Fatalf("bucketed %d of 5000", total)
	}
	// The ChatGPT corpus should populate every bucket.
	for _, pb := range PaperBuckets {
		if counts[pb] == 0 {
			t.Errorf("bucket %d empty for chatgpt-prompts", pb)
		}
	}
}

func TestStreamDeterministicAndComplete(t *testing.T) {
	a := NewStream(7, AllDatasets()...)
	b := NewStream(7, AllDatasets()...)
	ra := a.NextN(50)
	rb := b.NextN(50)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("same seed must give identical streams")
		}
	}
	for i, r := range ra {
		if r.ID != i {
			t.Fatalf("request IDs must be sequential: %+v", r)
		}
		if r.PromptTokens < 1 || r.DecodeTokens < 1 {
			t.Fatalf("degenerate request %+v", r)
		}
		if r.Dataset == "" {
			t.Fatalf("unlabelled request %+v", r)
		}
	}
}

func TestStreamMixesDatasets(t *testing.T) {
	s := NewStream(11, AllDatasets()...)
	seen := map[string]bool{}
	for _, r := range s.NextN(200) {
		seen[r.Dataset] = true
	}
	if len(seen) != 3 {
		t.Fatalf("stream used %d datasets, want 3", len(seen))
	}
}

func TestNewStreamPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty stream should panic")
		}
	}()
	NewStream(1)
}

// Property: bucket is always one of the paper buckets and monotone in
// the sense that larger inputs never map to smaller buckets.
func TestBucketMonotoneQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		return Bucket(x) <= Bucket(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAssignDeadlines(t *testing.T) {
	reqs := []Request{
		{ID: 0, PromptTokens: 10, DecodeTokens: 5},
		{ID: 1, PromptTokens: 100, DecodeTokens: 50},
		{ID: 2, PromptTokens: 1, DecodeTokens: 1, Deadline: 0.125},
	}
	AssignDeadlines(reqs, 2, 0.01)
	if want := 2 + 0.01*15; reqs[0].Deadline != want {
		t.Fatalf("request 0 deadline %v, want %v", reqs[0].Deadline, want)
	}
	if reqs[0].Deadline >= reqs[1].Deadline {
		t.Fatalf("deadline not growing with size: %v then %v", reqs[0].Deadline, reqs[1].Deadline)
	}
	// A pre-set deadline is preserved, not overwritten.
	if reqs[2].Deadline != 0.125 {
		t.Fatalf("explicit deadline overwritten: %v", reqs[2].Deadline)
	}
}

// TestAssignDeadlinesArrivalRelative pins the open-loop contract: the
// deadline budget starts at the request's arrival, not at t=0, so a
// late-arriving request is not born violated. Two requests of equal
// size must get equal budgets regardless of when they arrive.
func TestAssignDeadlinesArrivalRelative(t *testing.T) {
	reqs := []Request{
		{ID: 0, PromptTokens: 10, DecodeTokens: 5},
		{ID: 1, PromptTokens: 10, DecodeTokens: 5, Arrival: 7.5},
	}
	AssignDeadlines(reqs, 2, 0.01)
	budget := 2 + 0.01*15
	if reqs[0].Deadline != budget {
		t.Fatalf("closed-queue request deadline %v, want %v", reqs[0].Deadline, budget)
	}
	if want := 7.5 + budget; reqs[1].Deadline != want {
		t.Fatalf("late-arriving request deadline %v, want arrival-relative %v", reqs[1].Deadline, want)
	}
	if reqs[1].Deadline <= reqs[1].Arrival {
		t.Fatalf("request born violated: arrival %v, deadline %v", reqs[1].Arrival, reqs[1].Deadline)
	}
}

func TestCapDecode(t *testing.T) {
	mk := func() []Request {
		return []Request{
			{ID: 0, PromptTokens: 8, DecodeTokens: 20},
			{ID: 1, PromptTokens: 8, DecodeTokens: 3},
		}
	}
	reqs := mk()
	CapDecode(reqs, 5)
	if reqs[0].DecodeTokens != 5 || reqs[1].DecodeTokens != 3 {
		t.Fatalf("CapDecode(5) = %+v, want clamp to 5 / keep 3", reqs)
	}
	// Non-positive limits are uncapped no-ops.
	for _, limit := range []int{0, -1} {
		reqs := mk()
		CapDecode(reqs, limit)
		if reqs[0].DecodeTokens != 20 || reqs[1].DecodeTokens != 3 {
			t.Fatalf("CapDecode(%d) mutated requests: %+v", limit, reqs)
		}
	}
}

func TestAssignDeadlinesPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative deadline parameters should panic")
		}
	}()
	AssignDeadlines([]Request{{}}, -1, 0)
}

func TestDecodeLengthMeanApproximatesDataset(t *testing.T) {
	s := NewStream(13, MTBench())
	var acc stats.Running
	for _, r := range s.NextN(3000) {
		acc.Add(float64(r.DecodeTokens))
	}
	want := float64(MTBench().DecodeMeanTokens)
	if math.Abs(acc.Mean()-want) > want*0.15 {
		t.Fatalf("decode mean %v, want ≈%v", acc.Mean(), want)
	}
}
