package cluster

import (
	"fmt"
	"math"

	"hybrimoe/internal/par"
)

// Horizon windows: the only way Step advances replicas.
//
// Between fleet synchronisation points, replicas are independent: the
// only couplings are dispatch (routing new work in), lifecycle actions
// (stalls, deaths, scale events on c.life), and handoffs (which sit in
// c.pending at their ReadyAt stamps). So once dispatch has drained every
// observable arrival and the emission queue is empty, every steppable
// replica whose clock trails the horizon
//
//	h = min(next lifecycle stamp, next pending stamp,
//	        clock of every steppable prefill-pool replica)
//
// may run to it, concurrently, without observing state another replica
// could change. The per-replica runs are then merged back into one
// stream ordered by (pre-step clock, replica index) — exactly the
// lockstep pick order (min-clock replica, ties to the lowest index) —
// so the emitted Event sequence is the same at any worker count.
//
// Why the merge is exact: while any candidate's clock trails h, a
// lockstep dispatch pass is a no-op (it returns at head.at > horizon
// before consulting admission, so the deferred counter can't drift),
// tickLife fires nothing (every lifecycle stamp is ≥ h), no replica
// gains or loses work, and a session's pre-step clocks are
// non-decreasing — so replaying the runs in (clock, index) order
// reproduces the lockstep pick sequence step for step. Draining
// replicas that empty mid-window retire immediately after their final
// event, where the lockstep queue would pop their ReplicaDead record.
//
// Why prefill-pool clocks bound h: only an export-mode prefill step
// creates a dispatch stamp — a handoff whose transfer-priced ReadyAt
// lies past that step's own start, unknowable before the step runs. A
// prefill replica's clock is at or above h, so it never joins a
// multi-step window, and every handoff it could create lands at or
// above h too. Scale-up joins are mixed replicas and never export.
//
// When h is not ahead of the trailing replica's clock — a deferred or
// stranded dispatch head, or a prefill replica at the frontier — the
// lockstep rule takes one step and re-runs dispatch, so the window is
// that replica's single next Session.Step. An emission returns without
// moving the clock, and a deferred head is judged again between it and
// the next compute step.

// advanceWindow runs one window: it picks the horizon, collects the
// steppable replicas whose clocks trail it (or, when the horizon is not
// ahead of now, the trailing replica alone for one step), fans them out
// to at most c.workers goroutines through par.Do (so a replica's panic
// re-panics on the caller), and merges the runs into c.queue for Step
// to drain. trailing and now are the frontier: the steppable
// replica whose clock trails the fleet and that clock.
func (c *Cluster) advanceWindow(trailing int, now float64) {
	h := math.Inf(1)
	if at, _, ok := c.life.PeekMin(); ok {
		h = at
	}
	if at, _, ok := c.pending.PeekMin(); ok && at < h {
		h = at
	}
	for i, r := range c.replicas {
		if r.role == RolePrefill && c.steppable(i) && r.eng.Clock() < h {
			h = r.eng.Clock()
		}
	}
	cands, limit := c.cands[:0], math.MaxInt
	if h <= now {
		cands, h, limit = append(cands, trailing), math.Inf(1), 1
	} else {
		for i, r := range c.replicas {
			if c.steppable(i) && r.eng.Clock() < h {
				cands = append(cands, i)
			}
		}
	}
	c.cands = cands
	k := min(c.workers, len(cands))
	if k <= 1 {
		for _, i := range cands {
			c.runReplica(i, h, limit)
		}
	} else {
		par.Do(k, len(cands), func(n int) { c.runReplica(cands[n], h, limit) })
	}
	c.mergeWindow(cands)
}

// runReplica steps replica i while its clock trails the horizon and it
// has work pending, at most limit times, recording each step's pre-step
// clock as its merge key. It leaves the trailing emissions of a final
// merged batch queued, as a driver that steps a replica only while
// Pending is positive must. A session that refuses to step with work
// pending is an accounting bug.
func (c *Cluster) runReplica(i int, h float64, limit int) {
	r := c.replicas[i]
	r.runEvs, r.runClocks = r.runEvs[:0], r.runClocks[:0]
	for len(r.runEvs) < limit && r.eng.Clock() < h && r.ses.Pending() > 0 {
		pre := r.eng.Clock()
		ev, ok := r.ses.Step()
		if !ok {
			panic(fmt.Sprintf("cluster: replica %d session refused to step with %d pending",
				i, r.ses.Pending()))
		}
		r.runEvs = append(r.runEvs, ev)
		r.runClocks = append(r.runClocks, pre)
	}
}

// mergeWindow interleaves the candidates' runs into c.queue, which
// dispatch has just emptied, in (pre-step clock, replica index) order —
// the lockstep pick order — letting the fleet door observe each step as
// it lands. After a replica's last event it renews the lease, moves the
// replica's exported checkpoints onto the migration timeline, and
// retires the replica if it was draining and emptied (its ReplicaDead
// record lands immediately after its final step, where the lockstep
// queue would pop it). The candidate list is ascending, so a strict <
// scan picks the lowest index on clock ties.
func (c *Cluster) mergeWindow(cands []int) {
	cursors := c.cursors[:0]
	total := 0
	for _, i := range cands {
		cursors = append(cursors, 0)
		total += len(c.replicas[i].runEvs)
	}
	c.cursors = cursors
	for n := 0; n < total; n++ {
		best, bi := -1, -1
		var bestKey float64
		for ci, idx := range cands {
			r := c.replicas[idx]
			cur := cursors[ci]
			if cur == len(r.runEvs) {
				continue
			}
			if key := r.runClocks[cur]; best < 0 || key < bestKey {
				best, bi, bestKey = ci, idx, key
			}
		}
		r := c.replicas[bi]
		ev := r.runEvs[cursors[best]]
		cursors[best]++
		c.door.Observe(ev)
		c.queue = append(c.queue, Event{Replica: bi, StepEvent: ev})
		if cursors[best] == len(r.runEvs) {
			r.lease = r.eng.Clock()
			c.exportPrefilled(bi)
			c.retireDrained(bi, r.eng.Clock())
		}
	}
}
