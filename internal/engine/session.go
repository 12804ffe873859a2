package engine

import (
	"fmt"
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

func (r *sessionRequest) done() bool {
	prefillDone := r.prefilled || r.req.PromptTokens <= 0
	return prefillDone && r.decoded >= r.req.DecodeTokens
}

// sessionEvent is one entry on the Session's unified event timeline.
type sessionEvent struct {
	kind sessionEventKind
	req  *sessionRequest // evArrival payload
	ev   StepEvent       // evEmit payload
}

// sessionEventKind discriminates the timeline's event kinds.
type sessionEventKind uint8

const (
	// evArrival fires when the clock reaches a submitted request's
	// arrival stamp; the request joins the admission queue.
	evArrival sessionEventKind = iota
	// evEmit is a completed iteration's pending StepEvent (the trailing
	// members of a merged batch) or an admission shed/deferral record,
	// stamped at the clock instant it was produced and drained one per
	// Step call.
	evEmit
	// evPrefetchDone marks the instant an iteration's in-flight
	// prefetch transfers complete on the link frontiers — bookkeeping
	// only: popping one emits nothing and (being stamped off the link
	// timeline, not the compute clock) never moves an observable stamp.
	evPrefetchDone
)

// Session is the streaming run loop, driven by a discrete-event
// timeline: submitted requests are scheduled as arrival events, each
// Step pops the queue's minimum — an arrival firing into the admission
// queue, a pending emission, or (implicitly, when nothing is runnable)
// the next arrival the clock jumps to — so open-loop idle gaps are
// skipped by construction rather than by scanning for the next arrival.
// Admitted requests enter the active set up to the concurrency limit
// and advance one engine iteration per Step — the request picked by the
// configured request scheduler, running a prefill forward or a single
// decode step — with a StepEvent emitted for each. The expert cache,
// trace generator and device clocks carry state across requests, the
// state a long-running server would have.
type Session struct {
	e             *Engine
	active        []*sessionRequest
	sched         reqsched.Scheduler
	batch         reqsched.BatchPolicy
	adm           AdmissionPolicy
	maxConcurrent int
	steps         int
	nextSeq       int
	nextSubmit    int
	// batches counts merged engine iterations (solo steps included);
	// StepEvent.Batch carries the ordinal.
	batches int
	// events is the unified timeline: scheduled arrivals (stamped at
	// the request's arrival), queued emissions (stamped at the clock
	// when produced) and prefetch-completion markers, popped in
	// (stamp, push order) order.
	events sim.Queue[sessionEvent]
	// arrived holds requests whose arrival event has fired, kept in
	// submission order — the admission queue. Admission is order-
	// preserving over submission order, not arrival order, so trace
	// replays with interleaved stamps admit the way the trace was
	// offered.
	arrived []*sessionRequest
	// future counts arrival events still scheduled on the timeline.
	future int
	// tally folds every event as Step returns it; admission snapshots
	// read its TTFT and TBT samples. An admission pass runs only once
	// every event produced so far has been emitted, so it sees each
	// completed iteration. Nil (and never fed) without a policy.
	tally    *Tally
	shed     int
	deferred int
	// exportPrefill marks the prefill half of a disaggregated pair; see
	// WithPrefillExport.
	exportPrefill bool
	// exported parks checkpointed requests between their Migrated
	// prefill event and the ExportPrefilled drain; they still count as
	// Pending (the request is in this session until the caller takes it).
	exported []*sessionRequest
	// Reused scratch buffers: the allocation-lean Step path. view backs
	// schedView's projection, busyPrev the per-step device-frontier
	// snapshots, seen checkBatch's duplicate check; none escape a Step.
	view              []reqsched.Request
	gpuPrev, linkPrev []float64
	seen              []bool
	// Batch-iteration scratch: runBatch's member/token projections and
	// its event assembly buffer. The events themselves are copied out by
	// value (one returned, the rest queued for emission), so the backing
	// slices never escape a Step and are reused across iterations.
	batchMembers []*sessionRequest
	batchTokens  []int
	batchEvents  []StepEvent
	// untilEvents backs StepUntil's batched return; valid until the next
	// StepUntil call.
	untilEvents []StepEvent
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
// one session (or the Run* compatibility wrappers) at a time;
// interleaving several corrupts none of the accounting but makes the
// shared clock meaningless.
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
	s := &Session{e: e, sched: rs, batch: bp, adm: e.set.admission, maxConcurrent: 1}
	if s.adm != nil {
		s.tally = &Tally{}
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Submit schedules requests on the event timeline. It may be called
// before the first Step or at any point during the run (a live request
// stream). A request with PromptTokens <= 0 skips prefill (a
// decode-only burst); one with DecodeTokens <= 0 stops after prefill. A
// request with neither — no work at all — is dropped immediately: it
// emits no event and never counts toward Pending. Each kept request
// becomes an arrival event at its Arrival stamp (0 for closed-queue
// requests, which fire on the first Step; stamps behind the clock fire
// immediately, the live-stream case).
func (s *Session) Submit(reqs ...workload.Request) {
	for _, r := range reqs {
		if r.PromptTokens <= 0 && r.DecodeTokens <= 0 {
			continue
		}
		sr := &sessionRequest{req: r, submitSeq: s.nextSubmit}
		s.nextSubmit++
		s.future++
		s.events.Push(r.Arrival, sessionEvent{kind: evArrival, req: sr})
	}
}

// SubmitPrefilled adopts checkpointed requests mid-life: each entered
// some other session, ran its prefill there, and arrives here carrying
// the exported Checkpoint. The request joins the timeline decode-only —
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
		s.future++
		at := r.Arrival
		if r.Checkpoint.ReadyAt > at {
			at = r.Checkpoint.ReadyAt
		}
		s.events.Push(at, sessionEvent{kind: evArrival, req: sr})
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
	return s.future + len(s.arrived) + len(s.active) + len(s.exported)
}

// Reclaim removes and returns every submitted request that has not yet
// run a compute step — scheduled arrivals still on the timeline, the
// arrived admission queue (deferred requests included), and admitted
// requests the scheduler never picked — in submission order, with their
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

	// Scheduled arrivals: rebuild the timeline without them. Popping in
	// (stamp, push) order and re-pushing preserves the relative order of
	// the surviving entries.
	if s.future > 0 {
		type kept struct {
			at float64
			ev sessionEvent
		}
		var keep []kept
		for {
			at, e, ok := s.events.PopMin()
			if !ok {
				break
			}
			if e.kind == evArrival {
				s.future--
				out = append(out, taken{e.req.submitSeq, e.req.req})
				continue
			}
			keep = append(keep, kept{at, e})
		}
		for _, k := range keep {
			s.events.Push(k.at, k.ev)
		}
	}

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

// Steps reports how many step events the session has emitted,
// shed/deferral records included.
func (s *Session) Steps() int { return s.steps }

// Shed reports how many requests the admission policy dropped.
func (s *Session) Shed() int { return s.shed }

// Deferred reports how many deferral verdicts the admission policy
// returned (a single request deferred across n admission passes counts
// n times; its PhaseDeferred event is emitted once).
func (s *Session) Deferred() int { return s.deferred }

// Scheduler reports the request-scheduling policy driving this session.
func (s *Session) Scheduler() string { return s.sched.Name() }

// Batcher reports the batch-forming policy merging this session's
// iterations ("none" when unbatched).
func (s *Session) Batcher() string { return s.batch.Name() }

// Batches reports how many engine iterations the session has run (a
// merged multi-request iteration counts once; its events all carry the
// same Batch ordinal). Steps()/Batches() exceeds 1 exactly when
// batching merged work.
func (s *Session) Batches() int { return s.batches }

// snapshot assembles the live-quantile view an admission decision sees.
// arrived is the real queue depth: arrivals still scheduled on the
// timeline are invisible — counting them would leak arrivals the server
// cannot know about yet.
func (s *Session) snapshot() SLOSnapshot {
	return SLOSnapshot{
		Now:    s.e.clock,
		TTFT:   s.tally.TTFT.Stats(),
		TBT:    s.tally.TBT.Stats(),
		Active: len(s.active),
		Queued: len(s.arrived),
	}
}

// arrive moves a fired arrival into the admission queue, keeping it
// sorted by submission order (arrival events fire in stamp order, so
// trace replays with interleaved stamps need the re-sort; in-order
// streams append).
func (s *Session) arrive(r *sessionRequest) {
	s.future--
	i := len(s.arrived)
	for i > 0 && s.arrived[i-1].submitSeq > r.submitSeq {
		i--
	}
	s.arrived = append(s.arrived, nil)
	copy(s.arrived[i+1:], s.arrived[i:])
	s.arrived[i] = r
}

// dropArrivedHead removes the admission queue's head in place, keeping
// the backing storage.
func (s *Session) dropArrivedHead() {
	copy(s.arrived, s.arrived[1:])
	s.arrived[len(s.arrived)-1] = nil
	s.arrived = s.arrived[:len(s.arrived)-1]
}

// pushEmit queues a StepEvent for emission at the current clock.
func (s *Session) pushEmit(ev StepEvent) {
	s.events.Push(s.e.clock, sessionEvent{kind: evEmit, ev: ev})
}

// HasEmission reports whether a produced StepEvent is queued for the
// next Step: a merged batch's trailing members, or an admission shed or
// deferral record. Pending does not count these (their requests have
// finished or been shed), so a driver that steps only while Pending is
// positive must deliver them separately. Emissions are stamped at (a
// past value of) the clock and fired arrivals are drained through it,
// so a queued emission is always the timeline's minimum — modulo
// prefetch markers, which order between but emit nothing.
func (s *Session) HasEmission() bool {
	for {
		_, e, ok := s.events.PeekMin()
		if ok && e.kind == evPrefetchDone {
			s.events.PopMin()
			continue
		}
		return ok && e.kind == evEmit
	}
}

// notePrefetchHorizon schedules a completion marker for transfers the
// iteration just issued that are still in flight on a link past the
// compute clock — the prefetch-completion event kind. It carries no
// emission; it exists so the timeline is a complete account of the
// simulated machine's future (arrivals, iteration completions,
// transfer completions).
func (s *Session) notePrefetchHorizon() {
	var frontier float64
	for _, busy := range s.e.linkBusy {
		if busy > frontier {
			frontier = busy
		}
	}
	if frontier > s.e.clock {
		s.events.Push(frontier, sessionEvent{kind: evPrefetchDone})
	}
}

// admit moves arrived requests into the active set up to the
// concurrency limit, consulting the admission policy when one is
// installed. A deferred request stays at the head of the arrived queue
// — admission is order-preserving, so later submissions wait behind it
// — unless nothing is active, in which case it is admitted anyway: with
// no work in flight the quantiles can never recover, and the loop must
// make progress.
func (s *Session) admit() {
	// The latency quantiles and clock are invariant across one admission
	// pass (no step runs in between); snapshot them once and refresh
	// only the queue depths per decision.
	var snap SLOSnapshot
	if s.adm != nil && len(s.arrived) > 0 {
		snap = s.snapshot()
	}
	for len(s.active) < s.maxConcurrent && len(s.arrived) > 0 {
		r := s.arrived[0]
		if s.adm != nil {
			snap.Active, snap.Queued = len(s.active), len(s.arrived)
			d := s.adm.Decide(r.req, snap)
			if d == AdmissionDefer && len(s.active) == 0 {
				// The verdict still counts; only the wait is skipped.
				s.deferred++
				d = AdmissionAdmit
			}
			switch d {
			case AdmissionShed:
				s.dropArrivedHead()
				s.shed++
				s.pushEmit(StepEvent{
					Request: r.req.ID, Phase: PhaseShed,
					Start: s.e.clock, End: s.e.clock,
					Deadline: r.req.Deadline, Arrival: r.req.Arrival,
					Class: r.req.Class, Done: true,
				})
				continue
			case AdmissionDefer:
				s.deferred++
				if !r.deferred {
					r.deferred = true
					s.pushEmit(StepEvent{
						Request: r.req.ID, Phase: PhaseDeferred,
						Start: s.e.clock, End: s.e.clock,
						Deadline: r.req.Deadline, Arrival: r.req.Arrival,
						Class: r.req.Class,
					})
				}
				return
			}
		}
		s.dropArrivedHead()
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

// Step pops the event timeline: a queued emission is returned (one per
// call, ahead of new compute); fired arrivals join the admission queue;
// then one admission pass runs and one engine iteration executes for
// the batch the batch former builds around the scheduler's pick. When
// nothing is runnable but arrivals are still scheduled (the open-loop
// idle gap), popping the next arrival IS the clock jump — the gap is
// skipped by construction. ok is false when every submitted request has
// finished or been shed.
func (s *Session) Step() (ev StepEvent, ok bool) {
	ev, ok = s.next()
	if ok {
		s.steps++
		s.tally.Add(ev)
	}
	return ev, ok
}

// next produces the event Step returns; see Step.
func (s *Session) next() (ev StepEvent, ok bool) {
	// Drain the timeline up to the clock: emissions return (one per
	// call), arrivals fire into the admission queue, prefetch markers
	// are retired. Stamp order interleaves them correctly — an arrival
	// during a drained batch's span fires before the batch's trailing
	// emissions pop, and joining the admission queue early is
	// unobservable until the admission pass below.
	for {
		at, e, popped := s.events.PeekMin()
		if !popped {
			break
		}
		if e.kind == evEmit {
			s.events.PopMin()
			return e.ev, true
		}
		if at > s.e.clock {
			break
		}
		s.events.PopMin()
		if e.kind == evArrival {
			s.arrive(e.req)
		}
	}
	s.admit()
	// Open-loop idle gap: the active set is drained and no admission
	// record is waiting, yet arrivals are still scheduled. Pop the next
	// one — the pop advances the clock to its stamp — fire any
	// co-arrivals the new clock covers, and re-admit; each round
	// consumes at least one scheduled request (admit, shed or promoted
	// deferral), so the loop terminates.
	for len(s.active) == 0 && !s.HasEmission() {
		at, e, popped := s.events.PopMin()
		if !popped {
			break
		}
		if e.kind != evArrival {
			continue
		}
		if at > s.e.clock {
			s.e.clock = at
		}
		s.arrive(e.req)
		for {
			at, e, peeked := s.events.PeekMin()
			if !peeked || e.kind != evArrival || at > s.e.clock {
				break
			}
			s.events.PopMin()
			s.arrive(e.req)
		}
		s.admit()
	}
	if s.HasEmission() {
		_, e, _ := s.events.PopMin()
		return e.ev, true
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
	if len(batch) == 1 {
		return s.stepSolo(idx), true
	}
	events := s.runBatch(batch, idx)
	for _, bev := range events[1:] {
		s.pushEmit(bev)
	}
	return events[0], true
}

// StepUntil advances the session until its clock reaches t (or the
// session drains), returning every StepEvent emitted along the way in
// Step order. It is exactly a Step loop — the event sequence is
// byte-identical to calling Step repeatedly — batched so per-step
// bookkeeping (scratch views, emission drains) amortizes and the caller
// makes one call per horizon instead of one per event. A step whose
// pre-step clock is below t may legitimately finish past it (an idle-gap
// jump or a long iteration), matching what a serial Step driver
// observes; the final clock is therefore >= t unless the session
// drained first. The returned slice is scratch reused by the next
// StepUntil call — copy it to retain events across calls.
func (s *Session) StepUntil(t float64) []StepEvent {
	evs := s.untilEvents[:0]
	for s.e.clock < t {
		ev, ok := s.Step()
		if !ok {
			break
		}
		evs = append(evs, ev)
	}
	s.untilEvents = evs
	return evs
}

// StepUntilClocked advances the session the way a lockstep fleet driver
// does — while its clock trails t and Pending is positive — recording,
// aligned with each returned event, the session clock observed
// immediately before the Step call that produced it: the merge key the
// driver interleaves replica runs by (the clock it would have seen when
// picking this session to step). Unlike StepUntil it stops once Pending
// reaches 0, leaving any emissions still queued (HasEmission) for the
// caller to deliver with Step. Events and clocks are appended to evs and
// clocks, which are returned; pass reusable backing to keep the loop
// allocation-free. Pre-step clocks are non-decreasing within one call.
func (s *Session) StepUntilClocked(t float64, evs []StepEvent, clocks []float64) ([]StepEvent, []float64) {
	for s.e.clock < t && s.Pending() > 0 {
		pre := s.e.clock
		ev, ok := s.Step()
		if !ok {
			break
		}
		evs = append(evs, ev)
		clocks = append(clocks, pre)
	}
	return evs, clocks
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

// snapBusy copies the engine's device-frontier vectors into the
// session's reused scratch, the pre-step snapshot busyDeltas diffs.
func (s *Session) snapBusy() (gpu0, link0 []float64) {
	s.gpuPrev = append(s.gpuPrev[:0], s.e.gpuBusy...)
	s.linkPrev = append(s.linkPrev[:0], s.e.linkBusy...)
	return s.gpuPrev, s.linkPrev
}

// stepSolo runs one engine iteration for a single request — the
// historical Session loop, which batch policy "none" (and any
// single-member batch) reproduces event-for-event.
func (s *Session) stepSolo(idx int) StepEvent {
	r := s.active[idx]

	ev := StepEvent{Request: r.req.ID, Start: s.e.clock, Deadline: r.req.Deadline,
		Arrival: r.req.Arrival, Class: r.req.Class, Batch: s.batches, BatchSize: 1,
		Adopted: r.adopted}
	ev.Queued = s.queueWait(r, ev.Start)
	hits0, misses0 := s.e.cache.Hits(), s.e.cache.Misses()
	cpu0 := s.e.cpuBusy
	gpu0, link0 := s.snapBusy()

	if !r.prefilled && r.req.PromptTokens > 0 {
		ev.Phase = PhasePrefill
		ev.Tokens = r.req.PromptTokens
		s.e.scheduler = s.e.prefillSched
		b := borrowStep()
		b.acts = trace.PrefillStepInto(b.acts, s.e.gen, r.req.PromptTokens)
		ev.Latency = s.e.runStep(b, r.req.PromptTokens, r.req.PromptTokens, false)
		r.prefilled = true
		if s.exportPrefill && r.req.DecodeTokens > 0 {
			ev.Migrated = true
			s.export(r, ev.Queued+ev.Latency)
		}
	} else {
		ev.Phase = PhaseDecode
		ev.Index = r.decoded
		ev.Tokens = 1
		s.e.scheduler = s.e.decodeSched
		b := borrowStep()
		b.acts = trace.DecodeStepInto(b.acts, s.e.gen)
		ev.Latency = s.e.runStep(b, 1, s.contextFor(r), false)
		r.decoded++
	}

	ev.End = s.e.clock
	ev.Hits = s.e.cache.Hits() - hits0
	ev.Misses = s.e.cache.Misses() - misses0
	ev.CPUBusy = maxF(0, s.e.cpuBusy-cpu0)
	ev.GPUBusyByDevice, ev.GPUBusy = s.busyDeltas(s.e.gpuBusy, gpu0)
	ev.LinkBusyByDevice, ev.LinkBusy = s.busyDeltas(s.e.linkBusy, link0)
	ev.Done = r.done()
	s.e.stats.CacheHitRate = s.e.cache.HitRate()
	s.notePrefetchHorizon()

	if ev.Done || r.migrated {
		s.active = append(s.active[:idx], s.active[idx+1:]...)
		s.sched.Stepped(idx, []int{idx})
	} else {
		s.sched.Stepped(idx, nil)
	}
	return ev
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
	return maxF(0, start-r.req.Arrival)
}

// runBatch executes one merged engine iteration for a multi-request
// batch and returns one StepEvent per member, in the batch former's
// order. The batch runs as a single forward: a pure-decode batch shares
// one trace.DecodeStep activation pass over the union of experts (one
// token per request through each), while a batch containing prefill
// work routes its total token count through one prefill-shaped pass.
// Cache hits/misses and device busy time are accounted once for the
// iteration, then attributed to members by token share (exactly — the
// telescoped integer splits sum to the iteration totals), and every
// member's event carries the full iteration latency as its TTFT/TBT
// observation, the latency a batched server's request actually sees.
func (s *Session) runBatch(batch []int, lead int) []StepEvent {
	// Member/token projections live in session scratch: nothing below
	// retains them past the iteration.
	members := s.batchMembers[:0]
	tokens := s.batchTokens[:0]
	total := 0
	allDecode := true
	context := 0
	for _, idx := range batch {
		r := s.active[idx]
		members = append(members, r)
		tok := 1
		if r.prefilled || r.req.PromptTokens <= 0 {
			if c := s.contextFor(r); c > context {
				context = c
			}
		} else {
			tok = r.req.PromptTokens
			allDecode = false
			if r.req.PromptTokens > context {
				context = r.req.PromptTokens
			}
		}
		tokens = append(tokens, tok)
		total += tok
	}
	s.batchMembers, s.batchTokens = members, tokens

	start := s.e.clock
	hits0, misses0 := s.e.cache.Hits(), s.e.cache.Misses()
	cpu0 := s.e.cpuBusy
	gpu0, link0 := s.snapBusy()

	b := borrowStep()
	if allDecode {
		s.e.scheduler = s.e.decodeSched
		b.acts = trace.BatchDecodeStepInto(b.acts, s.e.gen, len(batch))
	} else {
		s.e.scheduler = s.e.prefillSched
		b.acts = trace.PrefillStepInto(b.acts, s.e.gen, total)
	}
	// Pure-decode batches count cache lookups per routed token so
	// hits+misses conserve against the unbatched run; prefill-bearing
	// batches are one prefill-shaped pass and keep prefill's
	// per-distinct-expert convention.
	latency := s.e.runStep(b, total, context, allDecode)

	hits := s.e.cache.Hits() - hits0
	misses := s.e.cache.Misses() - misses0
	cpu := maxF(0, s.e.cpuBusy-cpu0)
	gpu, _ := s.busyDeltas(s.e.gpuBusy, gpu0)
	link, _ := s.busyDeltas(s.e.linkBusy, link0)
	end := s.e.clock
	s.e.stats.CacheHitRate = s.e.cache.HitRate()
	s.notePrefetchHorizon()

	// The assembly buffer is scratch too — Step copies events out by
	// value (one returned, the rest queued) before the next iteration.
	events := s.batchEvents[:0]
	cum := 0
	for i, r := range members {
		prev, next := cum, cum+tokens[i]
		cum = next
		ev := StepEvent{
			Request:  r.req.ID,
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
			CPUBusy:   cpu*float64(next)/float64(total) - cpu*float64(prev)/float64(total),
			BatchSize: len(batch),
		}
		// Per-device token-share splits, telescoped the same way; the
		// scalars are their sums. Arena-carved: the slices escape with
		// the event.
		ev.GPUBusyByDevice = s.arena.take(len(gpu))
		ev.LinkBusyByDevice = s.arena.take(len(link))
		for d := range gpu {
			ev.GPUBusyByDevice[d] = gpu[d]*float64(next)/float64(total) - gpu[d]*float64(prev)/float64(total)
			ev.GPUBusy += ev.GPUBusyByDevice[d]
		}
		for d := range link {
			ev.LinkBusyByDevice[d] = link[d]*float64(next)/float64(total) - link[d]*float64(prev)/float64(total)
			ev.LinkBusy += ev.LinkBusyByDevice[d]
		}
		if !r.prefilled && r.req.PromptTokens > 0 {
			ev.Phase = PhasePrefill
			ev.Tokens = r.req.PromptTokens
			r.prefilled = true
			if s.exportPrefill && r.req.DecodeTokens > 0 {
				ev.Migrated = true
				s.export(r, ev.Queued+latency)
			}
		} else {
			ev.Phase = PhaseDecode
			ev.Index = r.decoded
			ev.Tokens = 1
			r.decoded++
		}
		ev.Done = r.done()
		events = append(events, ev)
	}
	s.batchEvents = events

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
	return events
}

// busyDeltas reports each device's occupancy-frontier advance since the
// prev snapshot, plus the summed advance the scalar event fields carry.
// The slice is carved from the session's arena — it escapes into the
// emitted event, so it is never reused, only cheaply allocated.
func (s *Session) busyDeltas(cur, prev []float64) ([]float64, float64) {
	out := s.arena.take(len(cur))
	var total float64
	for d := range cur {
		out[d] = maxF(0, cur[d]-prev[d])
		total += out[d]
	}
	return out, total
}

// contextFor reports the KV context length for a request's next decode
// step: the prompt plus tokens generated so far, or the engine's
// configured default for decode-only bursts (the Run* wrappers).
func (s *Session) contextFor(r *sessionRequest) int {
	if r.adopted && r.req.Checkpoint != nil {
		// The checkpoint's context is authoritative for adopted
		// requests: the prefill happened elsewhere, possibly over a
		// different prompt accounting than PromptTokens suggests.
		return r.req.Checkpoint.Context + r.decoded
	}
	if r.req.PromptTokens <= 0 {
		return s.e.set.context
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

// RunDecode measures steps decode iterations and returns per-step TBT.
// It is a compatibility wrapper over a decode-only Session burst at the
// engine's configured KV context.
func (e *Engine) RunDecode(steps int) Result {
	if steps <= 0 {
		panic(fmt.Sprintf("engine: non-positive decode steps %d", steps))
	}
	s := e.NewSession()
	s.Submit(workload.Request{DecodeTokens: steps})
	res := Result{Framework: e.fw.Name, Model: e.cfg.Name}
	s.Run(func(ev StepEvent) {
		res.StepLatencies = append(res.StepLatencies, ev.Latency)
		res.Total += ev.Latency
	})
	res.Stats = e.stats
	return res
}

// RunPrefill measures a single prefill forward over the given prompt
// length and returns its TTFT as the sole step latency. It is a
// compatibility wrapper over a prefill-only Session request.
func (e *Engine) RunPrefill(tokens int) Result {
	if tokens <= 0 {
		panic(fmt.Sprintf("engine: non-positive prefill tokens %d", tokens))
	}
	s := e.NewSession()
	s.Submit(workload.Request{PromptTokens: tokens})
	res := Result{Framework: e.fw.Name, Model: e.cfg.Name}
	s.Run(func(ev StepEvent) {
		res.StepLatencies = append(res.StepLatencies, ev.Latency)
		res.Total += ev.Latency
	})
	res.Stats = e.stats
	return res
}
