package engine

import (
	"math"
	"reflect"
	"testing"

	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

// collectEvents drains a fresh session over reqs and returns its events.
func collectEvents(t *testing.T, seed uint64, conc int, reqs []workload.Request, extra ...Option) []StepEvent {
	t.Helper()
	e := newEngineOpts(t, seed, extra...)
	s := e.NewSession(WithMaxConcurrent(conc))
	s.Submit(reqs...)
	var events []StepEvent
	s.Run(func(ev StepEvent) { events = append(events, ev) })
	return events
}

// TestBatchNoneIsIdentical pins the compatibility contract: an engine
// with an explicit WithBatchPolicy("none", ...) emits an event stream
// deep-equal to the default engine's — batch formation is a strict
// superset of today's Session loop, field for field.
func TestBatchNoneIsIdentical(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, PromptTokens: 32, DecodeTokens: 5},
		{ID: 1, PromptTokens: 48, DecodeTokens: 3},
		{ID: 2, DecodeTokens: 4},
		{ID: 3, PromptTokens: 24, DecodeTokens: 2},
	}
	base := collectEvents(t, 300, 3, reqs)
	explicit := collectEvents(t, 300, 3, reqs, WithBatchPolicy("none", 0))
	if !reflect.DeepEqual(base, explicit) {
		t.Fatalf("batch=none diverged from the default loop:\n default: %+v\nexplicit: %+v", base, explicit)
	}
	// Every compute event of the unbatched loop is a solo batch.
	for _, ev := range base {
		if ev.BatchSize != 1 || ev.Batch < 1 {
			t.Fatalf("unbatched event with batch fields %d/%d: %+v", ev.Batch, ev.BatchSize, ev)
		}
	}
}

// TestBatchedSessionConservation pins the merged iteration's
// accounting against the equivalent unbatched run on a decode-only
// workload (where per-step lookup counts are workload-determined):
// same total tokens, same total cache lookups (hits+misses), and the
// same per-request Done events — batching reshapes iterations, never
// loses or invents work.
func TestBatchedSessionConservation(t *testing.T) {
	mkReqs := func() []workload.Request {
		return []workload.Request{
			{ID: 0, DecodeTokens: 6},
			{ID: 1, DecodeTokens: 3},
			{ID: 2, DecodeTokens: 5},
			{ID: 3, DecodeTokens: 2},
		}
	}
	type totals struct {
		tokens int
		looks  int64
		done   map[int]int
	}
	sum := func(events []StepEvent) totals {
		tt := totals{done: map[int]int{}}
		for _, ev := range events {
			tt.tokens += ev.Tokens
			tt.looks += ev.Hits + ev.Misses
			if ev.Done {
				tt.done[ev.Request]++
			}
		}
		return tt
	}
	plain := sum(collectEvents(t, 301, 4, mkReqs()))
	batched := sum(collectEvents(t, 301, 4, mkReqs(), WithBatchPolicy("greedy", 64)))

	if plain.tokens != batched.tokens {
		t.Fatalf("token conservation broken: plain %d, batched %d", plain.tokens, batched.tokens)
	}
	if plain.looks != batched.looks {
		t.Fatalf("lookup conservation broken: plain hits+misses %d, batched %d", plain.looks, batched.looks)
	}
	if !reflect.DeepEqual(plain.done, batched.done) {
		t.Fatalf("done-event conservation broken: plain %v, batched %v", plain.done, batched.done)
	}
	for id, n := range batched.done {
		if n != 1 {
			t.Fatalf("request %d emitted %d Done events", id, n)
		}
	}
}

// TestBatchedStepEventAttribution checks the merged iteration's event
// shape: co-members share the Batch ordinal, Start/End bounds and the
// iteration latency, and their attributed hits/misses/busy deltas sum
// exactly to what the engine's counters moved by.
func TestBatchedStepEventAttribution(t *testing.T) {
	e := newEngineOpts(t, 302, WithBatchPolicy("greedy", 64))
	s := e.NewSession(WithMaxConcurrent(4))
	s.Submit(workload.Request{ID: 0, DecodeTokens: 4},
		workload.Request{ID: 1, DecodeTokens: 4},
		workload.Request{ID: 2, DecodeTokens: 4})
	if s.Batcher() != "greedy" {
		t.Fatalf("session batcher %q, want greedy", s.Batcher())
	}

	byBatch := map[int][]StepEvent{}
	s.Run(func(ev StepEvent) { byBatch[ev.Batch] = append(byBatch[ev.Batch], ev) })
	if s.Batches() >= s.Steps() {
		t.Fatalf("no merged iterations: %d batches over %d steps", s.Batches(), s.Steps())
	}

	merged := 0
	var looks int64
	for ord, events := range byBatch {
		if len(events) != events[0].BatchSize {
			t.Fatalf("batch %d emitted %d events for BatchSize %d", ord, len(events), events[0].BatchSize)
		}
		var h, m int64
		var cpu, gpu, link float64
		for _, ev := range events {
			if ev.Start != events[0].Start || ev.End != events[0].End {
				t.Fatalf("batch %d members disagree on bounds: %+v vs %+v", ord, ev, events[0])
			}
			if ev.Latency != events[0].Latency {
				t.Fatalf("batch %d members disagree on latency", ord)
			}
			if ev.Phase != PhaseDecode || ev.Tokens != 1 {
				t.Fatalf("decode-only batch member mis-phased: %+v", ev)
			}
			h += ev.Hits
			m += ev.Misses
			cpu += ev.CPUBusy
			gpu += ev.GPUBusy
			link += ev.LinkBusy
		}
		looks += h + m
		if len(events) > 1 {
			merged++
			if h+m == 0 {
				t.Fatalf("merged batch %d attributed no lookups", ord)
			}
		}
		for name, v := range map[string]float64{"cpu": cpu, "gpu": gpu, "link": link} {
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("batch %d %s busy attribution = %v", ord, name, v)
			}
		}
	}
	if merged == 0 {
		t.Fatal("greedy policy with 3 decode requests never merged a batch")
	}
	// Attributed lookups across all events equal the cache's counters.
	if got := e.Caches().Hits() + e.Caches().Misses(); got != looks {
		t.Fatalf("attributed lookups %d != cache counters %d", looks, got)
	}
}

// TestBatchedMixedPhases runs greedy batching over a stream that still
// owes prefills: merged iterations containing prefill work must emit
// per-request events with the right phases and finish every request.
func TestBatchedMixedPhases(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, PromptTokens: 24, DecodeTokens: 3},
		{ID: 1, PromptTokens: 16, DecodeTokens: 2},
		{ID: 2, PromptTokens: 8, DecodeTokens: 4},
	}
	events := collectEvents(t, 303, 3, reqs, WithBatchPolicy("greedy", 64))
	prefills, decodes := map[int]int{}, map[int]int{}
	// The clock is monotonic across iterations; events within one batch
	// share their bounds and deliberately overlap each other.
	var prevEnd float64
	prevBatch := 0
	for _, ev := range events {
		if ev.End < ev.Start || (ev.Batch != prevBatch && ev.Start < prevEnd) {
			t.Fatalf("batched event clock not monotonic: %+v after %v", ev, prevEnd)
		}
		prevEnd, prevBatch = ev.End, ev.Batch
		switch ev.Phase {
		case PhasePrefill:
			prefills[ev.Request]++
			if ev.Tokens != reqs[ev.Request].PromptTokens {
				t.Fatalf("prefill tokens %d for request %d", ev.Tokens, ev.Request)
			}
		case PhaseDecode:
			decodes[ev.Request]++
		}
	}
	for _, r := range reqs {
		if prefills[r.ID] != 1 || decodes[r.ID] != r.DecodeTokens {
			t.Fatalf("request %d served %d prefills / %d decodes, want 1 / %d",
				r.ID, prefills[r.ID], decodes[r.ID], r.DecodeTokens)
		}
	}
}

// TestPhaseAwareBatchesStayPure pins the phase-aware policy end-to-end:
// no merged iteration ever mixes prefill and decode events.
func TestPhaseAwareBatchesStayPure(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, PromptTokens: 24, DecodeTokens: 4},
		{ID: 1, PromptTokens: 16, DecodeTokens: 4},
		{ID: 2, PromptTokens: 8, DecodeTokens: 4},
		{ID: 3, DecodeTokens: 6},
	}
	events := collectEvents(t, 304, 4, reqs, WithBatchPolicy("phase-aware", 256))
	phases := map[int]map[Phase]bool{}
	sizes := map[int]int{}
	for _, ev := range events {
		if phases[ev.Batch] == nil {
			phases[ev.Batch] = map[Phase]bool{}
		}
		phases[ev.Batch][ev.Phase] = true
		sizes[ev.Batch] = ev.BatchSize
	}
	merged := false
	for ord, ph := range phases {
		if len(ph) > 1 {
			t.Fatalf("phase-aware batch %d mixed phases %v", ord, ph)
		}
		merged = merged || sizes[ord] > 1
	}
	if !merged {
		t.Fatal("phase-aware never merged a batch over 4 concurrent requests")
	}
}

// TestWithBatchPolicyValidation pins eager option validation: unknown
// names and rejected budgets fail at engine construction, not at the
// first Step.
func TestWithBatchPolicyValidation(t *testing.T) {
	mk := func(opt Option) error {
		_, err := New(moe.DeepSeek(), hw.A6000Platform(), HybriMoEFramework(), opt)
		return err
	}
	if err := mk(WithBatchPolicy("no-such-batcher", 64)); err == nil {
		t.Fatal("unknown batch policy must fail construction")
	}
	if err := mk(WithBatchPolicy("greedy", 0)); err == nil {
		t.Fatal("greedy with zero budget must fail construction")
	}
	if err := mk(WithBatchPolicy("phase-aware", -1)); err == nil {
		t.Fatal("phase-aware with negative budget must fail construction")
	}
	if err := mk(WithBatchPolicy("greedy", 128)); err != nil {
		t.Fatalf("valid batch policy rejected: %v", err)
	}
}

// TestShareSplit pins the token-share split at its edges. A lone member
// spans the whole token range and gets x itself, for values where the
// telescoped x*n/n is not x. Each member of a two-member batch, cut at
// every point, keeps the telescoped formula exactly, so merged events
// cannot move.
func TestShareSplit(t *testing.T) {
	cases := []struct {
		x float64
		n int
	}{
		{0.1, 3}, {0.7, 3}, {0.2, 3}, {0.013, 5}, {0.007, 5}, {0.123456789, 9}, {0.0371, 59},
	}
	for _, c := range cases {
		telescoped := func(prev, next int) float64 {
			return c.x*float64(next)/float64(c.n) - c.x*float64(prev)/float64(c.n)
		}
		if telescoped(0, c.n) == c.x {
			t.Fatalf("%v over %d tokens: x*n/n is x, so the case tests nothing", c.x, c.n)
		}
		if got := share(c.x, 0, c.n, c.n); got != c.x {
			t.Errorf("lone member of %d tokens got %v of %v", c.n, got, c.x)
		}
		for cut := 1; cut < c.n; cut++ {
			if got, want := share(c.x, 0, cut, c.n), telescoped(0, cut); got != want {
				t.Errorf("%v split %d|%d: first member %v, telescoped %v", c.x, cut, c.n-cut, got, want)
			}
			if got, want := share(c.x, cut, c.n, c.n), telescoped(cut, c.n); got != want {
				t.Errorf("%v split %d|%d: second member %v, telescoped %v", c.x, cut, c.n-cut, got, want)
			}
		}
	}
}

// TestLoneMemberBusyIsFrontierAdvance pins the lone-member guard end to
// end: every event of an unbatched session, prefill and decode, on one
// GPU and on two, carries CPU and per-device busy times equal bit for
// bit to how far the engine's frontiers advanced during its iteration,
// and scalars equal to their sums. The unguarded split would give a
// prefill of n tokens x*n/n instead, so the run must include an advance
// where that differs from x.
func TestLoneMemberBusyIsFrontierAdvance(t *testing.T) {
	differs := 0
	for _, p := range []*hw.Platform{hw.A6000Platform(), hw.MultiA6000Platform(2)} {
		fw := HybriMoEFramework()
		if p.NumGPUs() > 1 {
			fw = expertParallelFramework()
		}
		e, err := New(moe.DeepSeek(), p, fw, WithCacheRatio(0.25), WithSeed(206))
		if err != nil {
			t.Fatal(err)
		}
		s := e.NewSession(WithMaxConcurrent(2))
		for i, prompt := range []int{3, 17, 33, 59, 95, 130, 257, 513} {
			s.Submit(workload.Request{ID: i, PromptTokens: prompt, DecodeTokens: 2})
		}
		for {
			cpu0 := e.cpuBusy
			gpu0 := append([]float64(nil), e.gpuBusy...)
			link0 := append([]float64(nil), e.linkBusy...)
			ev, ok := s.Step()
			if !ok {
				break
			}
			if ev.BatchSize != 1 {
				t.Fatalf("unbatched session ran a batch of %d", ev.BatchSize)
			}
			advances := []float64{maxF(0, e.cpuBusy-cpu0)}
			if ev.CPUBusy != advances[0] {
				t.Fatalf("%s event CPUBusy %v, frontier advanced %v", ev.Phase, ev.CPUBusy, advances[0])
			}
			var gpu, link float64
			for d := range gpu0 {
				g, l := maxF(0, e.gpuBusy[d]-gpu0[d]), maxF(0, e.linkBusy[d]-link0[d])
				if ev.GPUBusyByDevice[d] != g || ev.LinkBusyByDevice[d] != l {
					t.Fatalf("%s event device %d busy %v/%v, frontiers advanced %v/%v",
						ev.Phase, d, ev.GPUBusyByDevice[d], ev.LinkBusyByDevice[d], g, l)
				}
				gpu += g
				link += l
				advances = append(advances, g, l)
			}
			if ev.GPUBusy != gpu || ev.LinkBusy != link {
				t.Fatalf("%s event scalars %v/%v, device sums %v/%v", ev.Phase, ev.GPUBusy, ev.LinkBusy, gpu, link)
			}
			n := float64(ev.Tokens)
			for _, x := range advances {
				if x*n/n != x {
					differs++
				}
			}
		}
	}
	if differs == 0 {
		t.Fatal("no frontier advance where x*n/n != x; the scenario lost its point")
	}
}

// TestStepPreClocksAreMonotone pins the merge-key invariant the
// cluster's (clock, replica) interleave depends on: stepped while
// Pending is positive, as a fleet window steps a replica, a session's
// pre-step clock never decreases — across merged batches, their
// trailing emissions and open-loop idle gaps.
func TestStepPreClocksAreMonotone(t *testing.T) {
	const seed = 4300
	stream := workload.NewStream(seed, workload.AllDatasets()...).
		WithArrivals(workload.Poisson(6))
	reqs := stream.NextN(12)
	workload.CapDecode(reqs, 4)
	e := newEngineOpts(t, seed, WithBatchPolicy("greedy", 64))
	s := e.NewSession(WithMaxConcurrent(3))
	s.Submit(reqs...)

	prev := math.Inf(-1)
	for s.Pending() > 0 {
		pre := e.Clock()
		if pre < prev {
			t.Fatalf("step %d starts at clock %v, after one that started at %v", s.Steps(), pre, prev)
		}
		if _, ok := s.Step(); !ok {
			t.Fatalf("Step refused with %d pending", s.Pending())
		}
		prev = pre
	}
	if s.Steps() == s.Batches() {
		t.Fatal("no step delivered a queued emission; the scenario lost its point")
	}
}

// TestPendingStepLoopStopsAtDrain pins the fleet-driver half of the
// contract: a loop that steps only while requests are pending, as a
// fleet window does, leaves a final merged batch's trailing events
// queued — reported by HasEmission and delivered by Step, which is how
// the cluster flushes them.
func TestPendingStepLoopStopsAtDrain(t *testing.T) {
	e := newEngineOpts(t, 4400, WithBatchPolicy("greedy", 64))
	s := e.NewSession(WithMaxConcurrent(4))
	for i := 0; i < 4; i++ {
		s.Submit(workload.Request{ID: i, DecodeTokens: 2})
	}
	stepped := 0
	for s.Pending() > 0 {
		if _, ok := s.Step(); !ok {
			t.Fatalf("Step refused with %d pending", s.Pending())
		}
		stepped++
	}
	trailing := 0
	for s.HasEmission() {
		if _, ok := s.Step(); !ok {
			t.Fatal("Step refused a queued emission")
		}
		trailing++
	}
	if trailing == 0 {
		t.Fatal("final merged batch left no trailing events; the scenario lost its point")
	}
	if got := stepped + trailing; got != 8 {
		t.Fatalf("%d events in all, want one per decode token (8)", got)
	}
	if _, ok := s.Step(); ok {
		t.Fatal("drained session still stepping")
	}
}
