package engine

import (
	"fmt"

	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// AdmissionDecision is an admission controller's verdict on one pending
// request.
type AdmissionDecision int

// Verdicts, from most to least welcoming.
const (
	// AdmissionAdmit moves the request into the active set.
	AdmissionAdmit AdmissionDecision = iota
	// AdmissionDefer keeps the request queued: it is re-evaluated on a
	// later admission pass, once the live quantiles have moved. A defer
	// with nothing active is promoted to an admit — waiting cannot
	// improve latencies no one is producing.
	AdmissionDefer
	// AdmissionShed drops the request without running it. The session
	// emits a PhaseShed event so studies can count shed load.
	AdmissionShed
)

// String returns the verdict name event logs use.
func (d AdmissionDecision) String() string {
	switch d {
	case AdmissionAdmit:
		return "admit"
	case AdmissionDefer:
		return "defer"
	case AdmissionShed:
		return "shed"
	default:
		return fmt.Sprintf("AdmissionDecision(%d)", int(d))
	}
}

// SLOSnapshot is what an admission policy sees at decision time: the
// running TTFT/TBT quantiles computed over every observation the
// session's event stream has produced so far, the simulation clock, and
// the queue depths.
type SLOSnapshot struct {
	// Now is the simulation clock at the admission pass.
	Now float64
	// TTFT and TBT summarise the Door's Tally of the session's (or, at
	// the fleet door, the cluster's) event stream so far. TTFT observations
	// are queue-inclusive — arrival → first token (StepEvent.Queued +
	// Latency), so queueing pressure from open-loop bursts moves the
	// quantiles; for closed-queue requests with no arrival stamp this
	// reduces to the forward latency alone. TBT observations are raw
	// per-step decode latencies. Zero-valued when no observation of
	// that stage exists yet.
	TTFT, TBT report.LatencyStats
	// Active and Queued are the in-flight and arrived-but-still-pending
	// request counts (Queued includes the request under decision;
	// requests whose open-loop arrival is still in the future are not
	// counted — the server cannot see them yet).
	Active, Queued int
}

// AdmissionPolicy decides, per pending request, whether the session
// admits, defers or sheds it. Policies see the live latency quantiles,
// so they can act exactly when p95/p99 targets come under pressure.
type AdmissionPolicy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Decide returns the verdict for one pending request.
	Decide(req workload.Request, snap SLOSnapshot) AdmissionDecision
}

// Door is the admission protocol, one implementation for both places a
// request can be turned away: a Session's admission pass and a
// Cluster's fleet door. It owns the Tally of the stream it guards, fills
// the policy's TTFT/TBT quantiles from it, promotes a deferral when
// nothing is in flight, builds the one shed record and the one
// first-deferral record, and counts sheds and deferral verdicts. A nil
// *Door admits everything and counts nothing.
type Door struct {
	policy AdmissionPolicy
	// tally folds every event of the guarded stream (see Observe); the
	// snapshots Admit hands the policy read its TTFT and TBT samples.
	tally          Tally
	shed, deferred int
}

// NewDoor returns a door judging with policy, or the nil door, which
// admits everything, when policy is nil.
func NewDoor(policy AdmissionPolicy) *Door {
	if policy == nil {
		return nil
	}
	return &Door{policy: policy}
}

// Observe folds one event of the guarded stream into the door's tally.
// The owner observes every event it emits, before its next admission
// pass, so each decision sees every completed iteration.
func (d *Door) Observe(ev StepEvent) {
	if d != nil {
		d.tally.Add(ev)
	}
}

// Admit judges req, the head of an order-preserving queue, at snap.Now
// with the queue depths in snap; it fills snap's TTFT and TBT itself.
// The verdict tells the owner what to do with req: admit it, drop it
// (shed), or leave it at the head so everything behind it waits
// (defer). idle reports that nothing the door guards is in flight: a
// deferral then still counts, but is promoted to an admit, because
// waiting cannot improve quantiles no one is producing. emit receives
// the record a verdict produces: a shed's terminal PhaseShed record, or
// the PhaseDeferred record of req's first deferral. *deferred is the
// owner's per-request mark that the latter was emitted.
func (d *Door) Admit(req workload.Request, snap SLOSnapshot, idle bool, deferred *bool, emit func(StepEvent)) AdmissionDecision {
	if d == nil {
		return AdmissionAdmit
	}
	snap.TTFT, snap.TBT = d.tally.TTFT.Stats(), d.tally.TBT.Stats()
	verdict := d.policy.Decide(req, snap)
	phase := PhaseShed
	switch verdict {
	case AdmissionShed:
		d.shed++
	case AdmissionDefer:
		d.deferred++
		if idle {
			return AdmissionAdmit
		}
		if *deferred {
			return verdict
		}
		*deferred, phase = true, PhaseDeferred
	default:
		return verdict
	}
	// The record runs nothing and echoes the request's labels.
	emit(StepEvent{
		Request: req.ID, Phase: phase, Start: snap.Now, End: snap.Now,
		Deadline: req.Deadline, Arrival: req.Arrival, Class: req.Class,
		Done: phase == PhaseShed,
	})
	return verdict
}

// Shed reports how many requests the door dropped.
func (d *Door) Shed() int {
	if d == nil {
		return 0
	}
	return d.shed
}

// Deferred reports how many deferral verdicts the policy returned,
// promoted ones included (a request deferred across n passes counts n
// times; its PhaseDeferred record is emitted once).
func (d *Door) Deferred() int {
	if d == nil {
		return 0
	}
	return d.deferred
}

// ClassTarget overrides the guard-wide budgets for one SLO class, so a
// single admission policy can hold "interactive" traffic to a tight
// budget while "batch" traffic rides a slack one.
type ClassTarget struct {
	// TTFTp95 and TBTp95 replace the policy's targets for requests of
	// this class; a zero field keeps the guard-wide target for that
	// stage (so a class can tighten TTFT alone).
	TTFTp95, TBTp95 float64
	// ShedExempt requests are never shed, only deferred — the same
	// protection Priority > 0 buys, granted to the whole class.
	ShedExempt bool
}

// SLOAdmission is the built-in SLO guard: it compares the live p95
// TTFT and TBT against their targets and turns new arrivals away when
// either is at risk. A breach up to ShedFactor× the target defers (the
// queue rides out the spike); beyond that it sheds, except that
// requests with Priority > 0 are never shed, only deferred — load
// shedding takes the best-effort traffic first.
type SLOAdmission struct {
	// TTFTp95 and TBTp95 are the p95 targets in seconds; a zero target
	// disables that stage's check.
	TTFTp95, TBTp95 float64
	// MinSamples is the per-stage observation count below which the
	// quantile is considered too noisy to act on (that stage's check
	// passes). Non-positive values fall back to the default of 4, so a
	// struct literal that only sets targets behaves like NewSLOAdmission.
	MinSamples int
	// ShedFactor scales a target into the hard-shed threshold: p95
	// above target defers, above ShedFactor×target sheds. Non-positive
	// values fall back to the default of 1.5.
	ShedFactor float64
	// Classes keys per-class targets on workload.Request.Class. A
	// request whose class has an entry is judged against that entry's
	// budgets (zero fields inherit the guard-wide targets); classes
	// without an entry — and the unclassified "" — keep the guard-wide
	// behaviour. The live quantiles stay aggregate: classes share one
	// observation stream and differ only in how much of it they
	// tolerate.
	Classes map[string]ClassTarget
}

// NewSLOAdmission returns an SLO guard with the default sample floor
// (4) and shed factor (1.5). Targets of zero disable the corresponding
// check; both zero yields a policy that admits everything.
func NewSLOAdmission(ttftP95, tbtP95 float64) *SLOAdmission {
	return &SLOAdmission{TTFTp95: ttftP95, TBTp95: tbtP95, MinSamples: 4, ShedFactor: 1.5}
}

// Name implements AdmissionPolicy.
func (a *SLOAdmission) Name() string { return "slo-p95" }

// Decide implements AdmissionPolicy.
func (a *SLOAdmission) Decide(req workload.Request, snap SLOSnapshot) AdmissionDecision {
	ttftT, tbtT := a.TTFTp95, a.TBTp95
	exempt := req.Priority > 0
	if ct, ok := a.Classes[req.Class]; ok {
		if ct.TTFTp95 > 0 {
			ttftT = ct.TTFTp95
		}
		if ct.TBTp95 > 0 {
			tbtT = ct.TBTp95
		}
		exempt = exempt || ct.ShedExempt
	}
	breach := maxF(a.breach(snap.TTFT, ttftT), a.breach(snap.TBT, tbtT))
	switch {
	case breach > a.shedFactor() && !exempt:
		return AdmissionShed
	case breach > 1:
		return AdmissionDefer
	default:
		return AdmissionAdmit
	}
}

// breach reports how far a stage's live p95 sits above its target, as a
// ratio; 0 when the check is disabled or under-sampled.
func (a *SLOAdmission) breach(l report.LatencyStats, target float64) float64 {
	if target <= 0 || l.N < a.minSamples() {
		return 0
	}
	return l.P95 / target
}

func (a *SLOAdmission) shedFactor() float64 {
	if a.ShedFactor <= 0 {
		return 1.5
	}
	return a.ShedFactor
}

func (a *SLOAdmission) minSamples() int {
	if a.MinSamples <= 0 {
		return 4
	}
	return a.MinSamples
}
