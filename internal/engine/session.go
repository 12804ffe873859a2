package engine

import (
	"fmt"
	"math"
	"sort"

	"hybrimoe/internal/reqsched"
	"hybrimoe/internal/sim"
	"hybrimoe/internal/trace"
	"hybrimoe/internal/workload"
)

// Phase labels which serving stage a step event belongs to.
type Phase int

// Serving stages.
const (
	// PhasePrefill is the prompt forward. Its Latency plus its Queued
	// wait is the request's TTFT, measured from arrival to first token;
	// for requests without an arrival stamp Queued is 0 and TTFT
	// remains the forward latency alone.
	PhasePrefill Phase = iota
	// PhaseDecode is one token-generation iteration; its latency is one
	// TBT observation.
	PhaseDecode
	// PhaseShed records an admission rejection: the request was dropped
	// before running anything. The event carries zero tokens and
	// latency, Done is set, and no further event mentions the request.
	PhaseShed
	// PhaseDeferred records the first time admission delayed a request;
	// later deferrals of the same request only increment the session's
	// Deferred counter.
	PhaseDeferred
)

// String returns the stage name experiment tables use.
func (p Phase) String() string {
	switch p {
	case PhasePrefill:
		return "prefill"
	case PhaseDecode:
		return "decode"
	case PhaseShed:
		return "shed"
	case PhaseDeferred:
		return "deferred"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// StepEvent reports one engine iteration of a Session run: which
// request advanced, in which stage, what it cost, and what the cache
// and devices did during it. Serving studies derive TTFT and TBT
// percentiles from the event stream instead of per-run means.
type StepEvent struct {
	// Request is the workload request ID this step served.
	Request int
	// Phase is the serving stage of this step.
	Phase Phase
	// Index is 0 for prefill and the decode-step ordinal (0-based)
	// within the request otherwise.
	Index int
	// Tokens is the number of tokens processed this step (the prompt
	// length at prefill, 1 at decode).
	Tokens int
	// Latency is the simulated wall-clock cost of the step in seconds.
	Latency float64
	// Start and End are absolute simulation-clock bounds of the step.
	Start, End float64
	// Hits and Misses count expert-cache lookups during this step.
	Hits, Misses int64
	// CPUBusy, GPUBusy and LinkBusy report how far each resource's
	// occupancy frontier advanced during this step (seconds). On
	// multi-GPU platforms GPUBusy and LinkBusy are the sums across
	// devices; the per-device split is in GPUBusyByDevice and
	// LinkBusyByDevice.
	CPUBusy, GPUBusy, LinkBusy float64
	// GPUBusyByDevice and LinkBusyByDevice split GPUBusy/LinkBusy per
	// GPU (index = device index). Single-GPU runs carry length-1
	// vectors equal to the scalars; shed/deferral records carry nil.
	GPUBusyByDevice  []float64
	LinkBusyByDevice []float64
	// Class echoes the request's SLO class label ("" when none), so
	// consumers can slice violation and shed rates per class without a
	// side table.
	Class string
	// Deadline echoes the request's completion deadline (0 when none),
	// so consumers can count SLO violations — End past Deadline on the
	// Done event — without a side table.
	Deadline float64
	// Arrival echoes the request's arrival stamp (0 for closed-queue
	// requests present from the start), so consumers can reconstruct
	// arrival-relative latencies without a side table.
	Arrival float64
	// Queued is the queue wait the request served before its first
	// compute step: arrival → step start, carried by that first event
	// only (the prefill, or the first decode of a prompt-less burst).
	// Latency + Queued on a prefill event is the queue-inclusive TTFT —
	// arrival to first token — the signal admission control watches.
	// Requests without an arrival stamp report 0, preserving the
	// closed-queue event stream bit-for-bit.
	Queued float64
	// Batch is the 1-based ordinal of the merged engine iteration this
	// step ran in. Every compute event carries one; the events of a
	// multi-request batch share it (and their Start/End bounds).
	// Shed/deferral records, which run nothing, leave it 0.
	Batch int
	// BatchSize is how many requests advanced together in this event's
	// iteration: 1 for a solo step, the batch width for a merged one,
	// 0 on shed/deferral records.
	BatchSize int
	// Done marks the request's final step (or its shed record).
	Done bool
	// Migrated marks a prefill event whose request left this session at
	// the stage boundary instead of decoding here (prefill-export mode,
	// see ExportPrefilled): not Done — the decode steps happen on the
	// adopting replica — but final as far as this session is concerned,
	// so attribution stays exactly conserved across the handoff. Always
	// false outside export mode, keeping existing streams byte-identical.
	Migrated bool `json:",omitempty"`
	// Adopted marks a step of a request this session adopted through
	// SubmitPrefilled: its first token came from the exporting session,
	// so a Tally never counts the adopted decode as one. Not serialised,
	// so event logs keep their schema.
	Adopted bool `json:"-"`
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithPrefillExport puts the session in prefill-export mode, the
// prefill half of a disaggregated deployment: a request's prefill runs
// here as usual (its event carries the Migrated marker), but instead of
// decoding, the request is checkpointed — prompt consumed, context
// length, KV bytes, the predicted expert working set resident at export
// — and parked for ExportPrefilled to drain. Requests with no decode
// work complete normally; the mode only splits lives that have a
// decode half to hand off.
func WithPrefillExport() SessionOption {
	return func(s *Session) { s.exportPrefill = true }
}

// WithMaxConcurrent admits up to n requests at once; their prefill and
// decode steps interleave in the order the engine's request scheduler
// picks (WithRequestScheduler; round-robin when unset), sharing the
// expert cache, the way a continuously-batched server mixes phases.
// With a batch former installed (WithBatchPolicy) the in-flight
// requests may additionally merge into one engine iteration per step.
// The default of 1 serves requests strictly in order. n < 1 panics.
func WithMaxConcurrent(n int) SessionOption {
	if n < 1 {
		panic(fmt.Sprintf("engine: WithMaxConcurrent(%d) must be at least 1", n))
	}
	return func(s *Session) { s.maxConcurrent = n }
}

// sessionRequest tracks one admitted request's progress.
type sessionRequest struct {
	req       workload.Request
	prefilled bool
	decoded   int
	seq       int  // admission order, the schedulers' final tie-break
	submitSeq int  // submission order, the arrived queue's sort key
	deferred  bool // a PhaseDeferred event has been emitted
	started   bool // the first compute step has run (queue wait stamped)
	migrated  bool // prefill exported; the request left this session
	adopted   bool // entered via SubmitPrefilled (TTFT already stamped)
}

// prefillNext reports whether r's next iteration is its prompt forward.
func (r *sessionRequest) prefillNext() bool {
	return !r.prefilled && r.req.PromptTokens > 0
}

func (r *sessionRequest) done() bool {
	return !r.prefillNext() && r.decoded >= r.req.DecodeTokens
}

// Session is the streaming run loop, a discrete-event simulation over
// two queues. Submitted requests wait on an arrival heap keyed by their
// arrival stamps: once the clock reaches a stamp the request joins the
// admission queue, and when nothing is runnable the clock jumps to the
// next stamp, so open-loop idle gaps are skipped by construction rather
// than by scanning. Events produced but not yet returned — a merged
// batch's trailing members, admission shed and deferral records — wait
// in an emission FIFO, and Step returns them one per call ahead of new
// compute. They are produced at the current clock, which never
// decreases, so FIFO order is also stamp order.
//
// Admitted requests enter the active set up to the concurrency limit;
// each iteration runs the batch the batch former builds around the
// request scheduler's pick (the pick alone when unbatched), a prefill
// forward or a decode step per member, with a StepEvent for each
// member. The expert cache, trace generator and device clocks carry
// state across requests, the state a long-running server would have.
type Session struct {
	e             *Engine
	active        []*sessionRequest
	sched         reqsched.Scheduler
	batch         reqsched.BatchPolicy
	maxConcurrent int
	steps         int
	nextSeq       int
	nextSubmit    int
	// batches counts engine iterations (one-member batches included);
	// StepEvent.Batch carries the ordinal.
	batches int
	// arrivals holds submitted requests the clock has not reached yet,
	// keyed by arrival stamp (FIFO among equal stamps).
	arrivals sim.Queue[*sessionRequest]
	// emits holds produced events awaiting delivery, oldest first.
	// emitHead is the pop cursor: Step zeroes the head slot and advances
	// it, and once drained the buffer resets to length zero for reuse.
	emits    []StepEvent
	emitHead int
	// arrived holds requests whose arrival the clock has reached, kept in
	// submission order — the admission queue. Admission is order-
	// preserving over submission order, not arrival order, so trace
	// replays with interleaved stamps admit the way the trace was
	// offered.
	arrived []*sessionRequest
	// door is the admission protocol (nil without a policy). Step has it
	// observe every event it returns; an admission pass runs only once
	// every event produced so far has been emitted, so each decision sees
	// every completed iteration.
	door *Door
	// exportPrefill marks the prefill half of a disaggregated pair; see
	// WithPrefillExport.
	exportPrefill bool
	// exported parks checkpointed requests between their Migrated
	// prefill event and the ExportPrefilled drain; they still count as
	// Pending (the request is in this session until the caller takes it).
	exported []*sessionRequest
	// Reused scratch buffers: the allocation-lean Step path. view backs
	// schedView's projection, gpuAdv/linkAdv runBatch's per-device
	// frontier snapshots (turned into advances in place), seen
	// checkBatch's duplicate check; none escape a Step.
	view            []reqsched.Request
	gpuAdv, linkAdv []float64
	seen            []bool
	// arena batches the per-event device-vector allocations; see devArena.
	arena devArena
}

// devArena hands out device-sized []float64s carved from chunked backing
// arrays, amortizing the per-event GPUBusyByDevice/LinkBusyByDevice
// allocations the step hot path used to make one at a time. Carved
// slices escape into StepEvents the caller may retain indefinitely, so a
// chunk is never reclaimed or reused once carved from — the arena only
// batches the allocations (one make per chunk instead of one per event),
// it does not pool them. A retained slice pins at most one chunk.
type devArena struct {
	buf []float64
}

// devArenaChunk sizes the arena's backing chunks: large enough to
// amortize, small enough that a single retained event pins little.
const devArenaChunk = 512

// take carves an n-element slice (capacity clamped to n, so appends by
// consumers can never bleed into a neighbour's carve).
func (a *devArena) take(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if len(a.buf) < n {
		size := devArenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]float64, size)
	}
	out := a.buf[:n:n]
	a.buf = a.buf[n:]
	return out
}

// NewSession starts a streaming run loop on the engine, with the
// request scheduler and admission policy the engine was constructed
// with (WithRequestScheduler, WithAdmission). An engine should drive
// one session at a time; interleaving several corrupts none of the
// accounting but makes the shared clock meaningless.
func (e *Engine) NewSession(opts ...SessionOption) *Session {
	rs, err := reqsched.New(e.set.reqSched)
	if err != nil {
		// WithRequestScheduler validated the name at construction; only
		// a corrupted settings struct reaches here.
		panic(fmt.Sprintf("engine: request scheduler vanished from registry: %v", err))
	}
	bp, err := reqsched.NewBatch(e.set.batchPolicy, e.set.batchBudget)
	if err != nil {
		// WithBatchPolicy validated name and budget at construction.
		panic(fmt.Sprintf("engine: batch policy vanished from registry: %v", err))
	}
	s := &Session{e: e, sched: rs, batch: bp, door: NewDoor(e.set.admission), maxConcurrent: 1}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Submit schedules requests on the arrival heap. It may be called
// before the first Step or at any point during the run (a live request
// stream). A request with PromptTokens <= 0 skips prefill (a
// decode-only burst); one with DecodeTokens <= 0 stops after prefill. A
// request with neither — no work at all — is dropped immediately: it
// emits no event and never counts toward Pending. Each kept request
// arrives at its Arrival stamp (0 for closed-queue
// requests, which fire on the first Step; stamps behind the clock fire
// immediately, the live-stream case).
func (s *Session) Submit(reqs ...workload.Request) {
	s.SubmitAt(math.Inf(-1), reqs...)
}

// SubmitAt is Submit for requests that cannot arrive before at: each
// kept request joins the arrival heap at the later of its Arrival and
// at, while its queue wait (StepEvent.Queued, and so its TTFT) still
// counts from Arrival. A fleet dispatches through it, so no compute
// runs before a re-routed request was reclaimed or before a scale-up
// replica began serving.
func (s *Session) SubmitAt(at float64, reqs ...workload.Request) {
	for _, r := range reqs {
		if r.PromptTokens <= 0 && r.DecodeTokens <= 0 {
			continue
		}
		sr := &sessionRequest{req: r, submitSeq: s.nextSubmit}
		s.nextSubmit++
		s.arrivals.Push(max(r.Arrival, at), sr)
	}
}

// SubmitPrefilled adopts checkpointed requests mid-life: each entered
// some other session, ran its prefill there, and arrives here carrying
// the exported Checkpoint. The request joins the arrival heap decode-only —
// prefill marked complete, context warm at the checkpoint's length, no
// fresh queue wait or TTFT stamp (the prefill replica already accrued
// both) — at the later of its Arrival and the checkpoint's ReadyAt
// (when the migrated state finishes arriving). Requests without a
// checkpoint panic; ones with no decode work are dropped like Submit's
// zero-work case.
func (s *Session) SubmitPrefilled(reqs ...workload.Request) {
	for _, r := range reqs {
		if r.Checkpoint == nil {
			panic(fmt.Sprintf("engine: SubmitPrefilled(request %d) without a checkpoint", r.ID))
		}
		if r.DecodeTokens <= 0 {
			continue
		}
		sr := &sessionRequest{req: r, prefilled: true, adopted: true, submitSeq: s.nextSubmit}
		s.nextSubmit++
		at := r.Arrival
		if r.Checkpoint.ReadyAt > at {
			at = r.Checkpoint.ReadyAt
		}
		s.arrivals.Push(at, sr)
	}
}

// ExportPrefilled drains and returns the requests whose prefill
// completed since the last drain (export mode only; nil otherwise) —
// each carrying its Checkpoint, ready for another session to adopt via
// SubmitPrefilled. Until drained they count as Pending and Reclaim
// returns them like any other undelivered work.
func (s *Session) ExportPrefilled() []workload.Request {
	if len(s.exported) == 0 {
		return nil
	}
	out := make([]workload.Request, len(s.exported))
	for i, r := range s.exported {
		out[i] = r.req
	}
	s.exported = nil
	return out
}

// Pending reports how many submitted requests have not yet finished —
// requests still waiting on their arrival included, exported
// checkpoints not yet drained included, shed and zero-work submissions
// (dropped at Submit) not.
func (s *Session) Pending() int {
	return s.arrivals.Len() + len(s.arrived) + len(s.active) + len(s.exported)
}

// Reclaim removes and returns every submitted request that has not yet
// run a compute step — arrivals still on the heap, the arrived
// admission queue (deferred requests included), and admitted requests
// the scheduler never picked — in submission order, with their
// original fields (Arrival stamps included) intact. Requests whose first
// compute step has run stay in flight and are not returned: their state
// (KV context, partial decode) lives in this engine and cannot move.
//
// Reclaim exists for fleet lifecycle: when a replica is declared dead,
// the cluster pulls its undelivered queue back out and re-routes it, so
// queue-inclusive TTFT honestly carries the time lost on the dead box.
// A reclaimed-from session stays consistent (Pending drops, in-flight
// requests keep running), but the request scheduler's rotation state is
// not re-anchored around the removals — reclaim from sessions being
// retired, not ones still serving a rotation-sensitive policy.
func (s *Session) Reclaim() []workload.Request {
	type taken struct {
		submitSeq int
		req       workload.Request
	}
	var out []taken

	// Arrivals the clock has not reached. Queued emissions stay: they
	// report steps that already ran and verdicts already given, and the
	// next Steps still deliver them.
	s.arrivals.Scan(func(_ float64, r *sessionRequest) {
		out = append(out, taken{r.submitSeq, r.req})
	})
	s.arrivals.Reset()

	// The arrived admission queue: nothing in it has started compute.
	for _, r := range s.arrived {
		out = append(out, taken{r.submitSeq, r.req})
	}
	s.arrived = s.arrived[:0]

	// Checkpointed-but-unmigrated exports: their prefill ran here, but
	// the checkpoint never left the session, so the caller re-owns them
	// (Checkpoint attached — the prefill work is not lost, only the
	// migration never happened).
	for _, r := range s.exported {
		out = append(out, taken{r.submitSeq, r.req})
	}
	s.exported = nil

	// Admitted requests the scheduler never stepped.
	remaining := s.active[:0]
	for _, r := range s.active {
		if r.started {
			remaining = append(remaining, r)
			continue
		}
		out = append(out, taken{r.submitSeq, r.req})
	}
	for i := len(remaining); i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = remaining

	sort.Slice(out, func(i, j int) bool { return out[i].submitSeq < out[j].submitSeq })
	reqs := make([]workload.Request, len(out))
	for i, t := range out {
		reqs[i] = t.req
	}
	return reqs
}

// Metrics is a session's counters at one instant. Steps, Batches, Shed
// and Deferred are the session's own. The cache and op counts are the
// engine's lifetime counters: an engine serves one session at a time,
// so they cover this session unless earlier ones ran on the engine.
type Metrics struct {
	// Steps counts the events Step has returned, shed and deferral
	// records included.
	Steps int
	// Batches counts engine iterations: a merged multi-request
	// iteration counts once, and its events all carry its ordinal as
	// StepEvent.Batch. Steps/Batches exceeds 1 exactly when batching
	// merged work.
	Batches int
	// Shed counts the requests the admission policy dropped. Deferred
	// counts its deferral verdicts: a request deferred across n
	// admission passes counts n times, though its PhaseDeferred event
	// is emitted once. Both are 0 without a policy.
	Shed, Deferred int
	// Hits and Misses count expert-cache lookups over every shard.
	Hits, Misses int64
	// CPUOps and GPUOps count expert computations by device kind;
	// DemandTransfers, PrefetchTransfers and MissInserts count expert
	// weight transfers by cause.
	CPUOps, GPUOps, DemandTransfers, PrefetchTransfers, MissInserts int
}

// HitRate reports Hits/(Hits+Misses), or 0 before any lookup.
func (m Metrics) HitRate() float64 {
	total := m.Hits + m.Misses
	if total == 0 {
		return 0
	}
	return float64(m.Hits) / float64(total)
}

// Metrics snapshots the session's counters.
func (s *Session) Metrics() Metrics {
	e := s.e
	return Metrics{
		Steps:             s.steps,
		Batches:           s.batches,
		Shed:              s.door.Shed(),
		Deferred:          s.door.Deferred(),
		Hits:              e.cache.Hits(),
		Misses:            e.cache.Misses(),
		CPUOps:            e.cpuOps,
		GPUOps:            e.gpuOps,
		DemandTransfers:   e.demandTransfers,
		PrefetchTransfers: e.prefetchTransfers,
		MissInserts:       e.missInserts,
	}
}

// arrive moves every arrival the clock has reached into the admission
// queue, keeping it sorted by submission order (arrivals fire in stamp
// order, so trace replays with interleaved stamps need the re-sort;
// in-order streams append).
func (s *Session) arrive() {
	for {
		at, r, ok := s.arrivals.PeekMin()
		if !ok || at > s.e.clock {
			return
		}
		s.arrivals.PopMin()
		i := len(s.arrived)
		for i > 0 && s.arrived[i-1].submitSeq > r.submitSeq {
			i--
		}
		s.arrived = append(s.arrived, nil)
		copy(s.arrived[i+1:], s.arrived[i:])
		s.arrived[i] = r
	}
}

// dropArrivedHead removes the admission queue's head in place, keeping
// the backing storage.
func (s *Session) dropArrivedHead() {
	copy(s.arrived, s.arrived[1:])
	s.arrived[len(s.arrived)-1] = nil
	s.arrived = s.arrived[:len(s.arrived)-1]
}

// pushEmit queues a StepEvent for delivery by a later Step.
func (s *Session) pushEmit(ev StepEvent) {
	s.emits = append(s.emits, ev)
}

// HasEmission reports whether a produced StepEvent is queued for the
// next Step: a merged batch's trailing members, or an admission shed or
// deferral record. Pending does not count these (their requests have
// finished or been shed), so a driver that steps only while Pending is
// positive must deliver them separately.
func (s *Session) HasEmission() bool { return s.emitHead < len(s.emits) }

// admit moves arrived requests into the active set up to the
// concurrency limit, each through the admission door. A deferred request
// stays at the head of the arrived queue — admission is order-preserving,
// so later submissions wait behind it — unless nothing is active, in
// which case the door promotes it: with no work in flight the quantiles
// can never recover, and the loop must make progress. The decision's
// queue depth is the arrived queue: arrivals still on the heap are
// invisible — counting them would leak arrivals the server cannot know
// about yet.
func (s *Session) admit() {
	for len(s.active) < s.maxConcurrent && len(s.arrived) > 0 {
		r := s.arrived[0]
		snap := SLOSnapshot{Now: s.e.clock, Active: len(s.active), Queued: len(s.arrived)}
		verdict := s.door.Admit(r.req, snap, len(s.active) == 0, &r.deferred, s.pushEmit)
		if verdict == AdmissionDefer {
			return
		}
		s.dropArrivedHead()
		if verdict == AdmissionShed {
			continue
		}
		r.seq = s.nextSeq
		s.nextSeq++
		s.active = append(s.active, r)
	}
}

// schedView projects the active set into the request schedulers' view.
// The slice is scratch reused across steps; schedulers and batch
// formers must not retain it past the call.
func (s *Session) schedView() []reqsched.Request {
	view := s.view[:0]
	for _, r := range s.active {
		view = append(view, reqsched.Request{
			ID:              r.req.ID,
			Seq:             r.seq,
			Priority:        r.req.Priority,
			Deadline:        r.req.Deadline,
			Prefilled:       r.prefilled,
			PromptTokens:    r.req.PromptTokens,
			RemainingDecode: r.req.DecodeTokens - r.decoded,
		})
	}
	s.view = view
	return view
}

// Step returns the next event. A queued emission goes first, one per
// call, ahead of new compute. Otherwise the arrivals the clock has
// reached join the admission queue, one admission pass runs, and one
// engine iteration executes for the batch the batch former builds
// around the scheduler's pick. When nothing is runnable but arrivals
// are still scheduled (the open-loop idle gap), the clock jumps to the
// next arrival stamp, so the gap is skipped by construction. ok is
// false when every submitted request has finished or been shed.
func (s *Session) Step() (ev StepEvent, ok bool) {
	ev, ok = s.next()
	if ok {
		s.steps++
		s.door.Observe(ev)
	}
	return ev, ok
}

// next produces the event Step returns; see Step.
func (s *Session) next() (ev StepEvent, ok bool) {
	// Arrivals are fired only once the emissions are drained: joining
	// the admission queue is unobservable until an admission pass, and
	// none runs while an emission is waiting.
	if !s.HasEmission() {
		s.arrive()
		s.admit()
		// Open-loop idle gap: the active set is drained and no admission
		// record is waiting, yet arrivals are still scheduled. Jump the
		// clock to the next stamp, fire every arrival it covers and
		// re-admit; each round consumes at least one scheduled request
		// (admit, shed or promoted deferral), so the loop terminates.
		for len(s.active) == 0 && !s.HasEmission() {
			at, _, scheduled := s.arrivals.PeekMin()
			if !scheduled {
				break
			}
			if at > s.e.clock {
				s.e.clock = at
			}
			s.arrive()
			s.admit()
		}
	}
	if s.HasEmission() {
		ev = s.emits[s.emitHead]
		s.emits[s.emitHead] = StepEvent{}
		s.emitHead++
		if s.emitHead == len(s.emits) {
			s.emits, s.emitHead = s.emits[:0], 0
		}
		return ev, true
	}
	if len(s.active) == 0 {
		return StepEvent{}, false
	}
	view := s.schedView()
	idx := s.sched.Next(s.e.clock, view)
	if idx < 0 || idx >= len(s.active) {
		panic(fmt.Sprintf("engine: request scheduler %q picked index %d of %d active",
			s.sched.Name(), idx, len(s.active)))
	}
	batch := s.batch.Form(s.e.clock, view, idx)
	s.checkBatch(batch, idx)
	s.batches++
	return s.runBatch(batch, idx), true
}

// checkBatch validates a batch former's output the way scheduler picks
// are validated: programming errors in a policy panic immediately
// instead of corrupting the accounting.
func (s *Session) checkBatch(batch []int, lead int) {
	if len(batch) == 0 {
		panic(fmt.Sprintf("engine: batch policy %q formed an empty batch", s.batch.Name()))
	}
	if cap(s.seen) < len(s.active) {
		s.seen = make([]bool, len(s.active))
	}
	seen := s.seen[:len(s.active)]
	for i := range seen {
		seen[i] = false
	}
	hasLead := false
	for _, i := range batch {
		if i < 0 || i >= len(s.active) {
			panic(fmt.Sprintf("engine: batch policy %q picked index %d of %d active",
				s.batch.Name(), i, len(s.active)))
		}
		if seen[i] {
			panic(fmt.Sprintf("engine: batch policy %q picked index %d twice", s.batch.Name(), i))
		}
		seen[i] = true
		hasLead = hasLead || i == lead
	}
	if !hasLead {
		panic(fmt.Sprintf("engine: batch policy %q dropped the scheduled lead %d from batch %v",
			s.batch.Name(), lead, batch))
	}
}

// export checkpoints a just-prefilled request and parks it for
// ExportPrefilled: the serializable decode-side state — prompt
// consumed, context, the KV bytes that must migrate, and the predicted
// expert working set resident on this engine right now (the affinity
// and warm-admission hint; the weights themselves are replicated).
// ttft is the queue-inclusive time-to-first-token the prefill accrued,
// recorded so the adopting session never re-stamps it.
func (s *Session) export(r *sessionRequest, ttft float64) {
	r.migrated = true
	r.req.Checkpoint = &workload.Checkpoint{
		PromptConsumed: r.req.PromptTokens,
		Context:        r.req.PromptTokens,
		KVBytes:        s.e.cfg.KVBytes(r.req.PromptTokens),
		Experts:        s.e.residentWorkingSet(),
		TTFT:           ttft,
	}
	s.exported = append(s.exported, r)
}

// queueWait stamps (once, on the request's first compute step) the
// arrival→start queue wait. Requests without an arrival stamp report 0,
// keeping the closed-queue event stream identical to the pre-arrival
// loop.
func (s *Session) queueWait(r *sessionRequest, start float64) float64 {
	if r.started {
		return 0
	}
	r.started = true
	// Adopted requests already paid their queue wait on the prefill
	// replica (the checkpoint's TTFT carries it); re-stamping would
	// double-count the wait across the handoff.
	if r.adopted || r.req.Arrival <= 0 {
		return 0
	}
	return max(0, start-r.req.Arrival)
}

// runBatch executes one engine iteration for the batch the former built
// around the scheduler's lead — a lone request or several merged — and
// returns the first member's StepEvent, queueing the rest for emission
// in the former's order. The batch runs as a single forward: a
// pure-decode batch shares one trace.BatchDecodeStepInto activation
// pass over the union of experts (one token per request through each),
// while a batch containing prefill work routes its total token count
// through one prefill-shaped pass. Cache hits/misses and device busy
// time are accounted once for the iteration, then attributed to members
// by token share (exactly — the telescoped splits sum to the iteration
// totals), and every member's event carries the full iteration latency
// as its TTFT/TBT observation, the latency a batched server's request
// actually sees.
func (s *Session) runBatch(batch []int, lead int) StepEvent {
	total := 0
	allDecode := true
	context := 0
	for _, idx := range batch {
		r := s.active[idx]
		if r.prefillNext() {
			total += r.req.PromptTokens
			allDecode = false
			context = max(context, r.req.PromptTokens)
		} else {
			total++
			context = max(context, s.contextFor(r))
		}
	}

	start := s.e.clock
	hits0, misses0 := s.e.cache.Hits(), s.e.cache.Misses()
	cpu0 := s.e.cpuBusy
	s.gpuAdv = append(s.gpuAdv[:0], s.e.gpuBusy...)
	s.linkAdv = append(s.linkAdv[:0], s.e.linkBusy...)

	b := borrowStep()
	if allDecode {
		s.e.scheduler = s.e.decodeSched
		b.acts = trace.BatchDecodeStepInto(b.acts, s.e.gen, len(batch))
	} else {
		s.e.scheduler = s.e.prefillSched
		b.acts = trace.PrefillStepInto(b.acts, s.e.gen, total)
	}
	// Pure-decode batches count cache lookups per routed token so
	// hits+misses conserve against the unbatched run (at load 1 that is
	// one lookup per expert); prefill-bearing batches are one
	// prefill-shaped pass and keep prefill's per-distinct-expert
	// convention.
	latency := s.e.runStep(b, total, context, allDecode)

	hits := s.e.cache.Hits() - hits0
	misses := s.e.cache.Misses() - misses0
	cpu := max(0, s.e.cpuBusy-cpu0)
	gpu := advances(s.gpuAdv, s.e.gpuBusy)
	link := advances(s.linkAdv, s.e.linkBusy)
	end := s.e.clock

	var first StepEvent
	cum := 0
	for i, idx := range batch {
		r := s.active[idx]
		prefill := r.prefillNext()
		tokens := 1
		if prefill {
			tokens = r.req.PromptTokens
		}
		prev, next := cum, cum+tokens
		cum = next
		ev := StepEvent{
			Request:  r.req.ID,
			Tokens:   tokens,
			Start:    start,
			End:      end,
			Latency:  latency,
			Deadline: r.req.Deadline,
			Arrival:  r.req.Arrival,
			Class:    r.req.Class,
			Queued:   s.queueWait(r, start),
			Batch:    s.batches,
			Adopted:  r.adopted,
			// Token-share attribution, telescoped so member deltas sum
			// exactly to the iteration totals.
			Hits:      hits*int64(next)/int64(total) - hits*int64(prev)/int64(total),
			Misses:    misses*int64(next)/int64(total) - misses*int64(prev)/int64(total),
			CPUBusy:   share(cpu, prev, next, total),
			BatchSize: len(batch),
		}
		// Per-device token-share splits, telescoped the same way; the
		// scalars are their sums. Arena-carved: the slices escape with
		// the event.
		ev.GPUBusyByDevice = s.arena.take(len(gpu))
		ev.LinkBusyByDevice = s.arena.take(len(link))
		for d := range gpu {
			ev.GPUBusyByDevice[d] = share(gpu[d], prev, next, total)
			ev.GPUBusy += ev.GPUBusyByDevice[d]
		}
		for d := range link {
			ev.LinkBusyByDevice[d] = share(link[d], prev, next, total)
			ev.LinkBusy += ev.LinkBusyByDevice[d]
		}
		if prefill {
			ev.Phase = PhasePrefill
			r.prefilled = true
			if s.exportPrefill && r.req.DecodeTokens > 0 {
				ev.Migrated = true
				s.export(r, ev.Queued+latency)
			}
		} else {
			ev.Phase = PhaseDecode
			ev.Index = r.decoded
			r.decoded++
		}
		ev.Done = r.done()
		if i == 0 {
			first = ev
		} else {
			s.pushEmit(ev)
		}
	}

	var removed []int
	remaining := s.active[:0]
	for i, r := range s.active {
		if r.done() || r.migrated {
			removed = append(removed, i)
			continue
		}
		remaining = append(remaining, r)
	}
	s.active = remaining
	// The scheduler is told its pick's outcome and the full (ascending)
	// removal set: a merged batch can complete co-members at indices
	// below the pick, and the compaction above shifts the active slice
	// under any cursor that only heard about the lead.
	s.sched.Stepped(lead, removed)
	return first
}

// advances turns prev, a snapshot of the device frontiers cur, into each
// device's frontier advance since the snapshot, in place.
func advances(prev, cur []float64) []float64 {
	for d := range prev {
		prev[d] = max(0, cur[d]-prev[d])
	}
	return prev
}

// share is the part of x attributed to the token range [prev, next) of
// an iteration's total: x*next/total - x*prev/total, which telescopes so
// the members' shares sum to x. A lone member, the only one spanning the
// whole range, gets x itself, because x*n/n is not always x.
func share(x float64, prev, next, total int) float64 {
	if prev == 0 && next == total {
		return x
	}
	return x*float64(next)/float64(total) - x*float64(prev)/float64(total)
}

// burstContext is the KV context a decode-only burst (a request without
// a prompt) attends over.
const burstContext = 512

// contextFor reports the KV context length for a request's next decode
// step: the prompt plus tokens generated so far, or burstContext for
// decode-only bursts.
func (s *Session) contextFor(r *sessionRequest) int {
	if r.adopted && r.req.Checkpoint != nil {
		// The checkpoint's context is authoritative for adopted
		// requests: the prefill happened elsewhere, possibly over a
		// different prompt accounting than PromptTokens suggests.
		return r.req.Checkpoint.Context + r.decoded
	}
	if r.req.PromptTokens <= 0 {
		return burstContext
	}
	return r.req.PromptTokens + r.decoded
}

// Run drains the session, invoking handler (when non-nil) on every
// event, and returns the number of steps executed.
func (s *Session) Run(handler func(StepEvent)) int {
	n := 0
	for {
		ev, ok := s.Step()
		if !ok {
			return n
		}
		if handler != nil {
			handler(ev)
		}
		n++
	}
}
