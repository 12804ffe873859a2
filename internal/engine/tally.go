package engine

import "hybrimoe/internal/report"

// Tally folds a StepEvent stream into the serving outcomes the paper's
// metrics are read from: TTFT (Fig 7's prefill latency, queue-inclusive
// once requests carry arrival stamps), TBT (Fig 8's decode step
// latency), goodput and shed load. Add is the one place events become
// outcomes; Session and Cluster admission, the experiment drivers, the
// CLI and the examples all read them from a Tally. Fleet consumers feed
// the StepEvent of every cluster event whose Kind is EventStep.
//
// The zero value is an empty tally, ready to use.
type Tally struct {
	// Completed counts requests whose final prefill or decode step (Done)
	// was folded; Shed counts admission rejections.
	Completed, Shed int
	// Violated counts completions that finished past their Deadline
	// (requests without one never violate).
	Violated int
	// DecodeTokens sums the tokens of every decode step; ComputeEvents
	// counts prefill and decode events (one per request per iteration).
	DecodeTokens, ComputeEvents int
	// Makespan is the latest End over every folded event, shed and
	// deferral records included.
	Makespan float64
	// TTFT samples each request's arrival → first-token time, Queued +
	// Latency on its first-token event. A first token is a prefill step,
	// or the first decode step of a prompt-less request that carries an
	// arrival stamp; the decode of a request adopted through a handoff
	// never is one (its first token came from the exporting replica).
	TTFT report.Live
	// Queue samples the arrival → first-compute wait on the same events
	// as TTFT; Prefill samples every prefill step's forward latency.
	Queue, Prefill report.Live
	// TBT samples every decode step's latency.
	TBT report.Live
	// Gap samples inter-token gaps: each decode step's End minus the End
	// of the same request's previous token. The first gap is anchored at
	// the first token, so a handoff's transfer and decode-pool queueing
	// are charged to it.
	Gap report.Live
	// ByClass slices Completed, Violated and Shed per SLO class
	// (StepEvent.Class; "" for unclassified requests).
	ByClass map[string]*ClassTally
	// CompletedAt maps each completed request to its final step's End.
	CompletedAt map[int]float64
	// last holds each in-flight request's latest token End, the anchor
	// for its next gap; a request leaves it when it completes.
	last map[int]float64
}

// ClassTally counts one SLO class's outcomes.
type ClassTally struct {
	Completed, Violated, Shed int
}

// Add folds one event into the tally. Add on a nil *Tally does nothing,
// so an owner that folds only when something reads the tally can leave
// it nil.
func (t *Tally) Add(ev StepEvent) {
	if t == nil {
		return
	}
	if ev.End > t.Makespan {
		t.Makespan = ev.End
	}
	switch ev.Phase {
	case PhaseShed:
		t.Shed++
		t.class(ev.Class).Shed++
		return
	case PhasePrefill:
		t.Prefill.Add(ev.Latency)
		t.firstToken(ev)
	case PhaseDecode:
		t.DecodeTokens += ev.Tokens
		t.TBT.Add(ev.Latency)
		if last, ok := t.last[ev.Request]; ok {
			t.Gap.Add(ev.End - last)
		} else if ev.Arrival > 0 && !ev.Adopted {
			t.firstToken(ev)
		}
		t.anchor(ev)
	default:
		return
	}
	t.ComputeEvents++
	if !ev.Done {
		return
	}
	delete(t.last, ev.Request)
	t.Completed++
	c := t.class(ev.Class)
	c.Completed++
	if ev.Deadline > 0 && ev.End > ev.Deadline {
		t.Violated++
		c.Violated++
	}
	if t.CompletedAt == nil {
		t.CompletedAt = make(map[int]float64)
	}
	t.CompletedAt[ev.Request] = ev.End
}

// firstToken records a request's first token and anchors its gaps.
func (t *Tally) firstToken(ev StepEvent) {
	t.TTFT.Add(ev.Queued + ev.Latency)
	t.Queue.Add(ev.Queued)
	t.anchor(ev)
}

// anchor records ev as its request's latest token.
func (t *Tally) anchor(ev StepEvent) {
	if t.last == nil {
		t.last = make(map[int]float64)
	}
	t.last[ev.Request] = ev.End
}

// class returns (allocating on demand) the counters for SLO class c.
func (t *Tally) class(c string) *ClassTally {
	ct, ok := t.ByClass[c]
	if !ok {
		if t.ByClass == nil {
			t.ByClass = make(map[string]*ClassTally)
		}
		ct = &ClassTally{}
		t.ByClass[c] = ct
	}
	return ct
}

// Goodput reports completions that met their deadline (or carried
// none) per simulated second of makespan; 0 before any event.
func (t *Tally) Goodput() float64 {
	if t.Makespan == 0 {
		return 0
	}
	return float64(t.Completed-t.Violated) / t.Makespan
}

// ShedFraction reports the share of offered requests admission shed; 0
// when nothing was offered.
func (t *Tally) ShedFraction(offered int) float64 {
	if offered == 0 {
		return 0
	}
	return float64(t.Shed) / float64(offered)
}

// DecodeThroughput reports decode tokens per simulated second of
// makespan; 0 before any event.
func (t *Tally) DecodeThroughput() float64 {
	if t.Makespan == 0 {
		return 0
	}
	return float64(t.DecodeTokens) / t.Makespan
}
