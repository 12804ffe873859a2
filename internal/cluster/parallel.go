package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Horizon-batched parallel execution.
//
// Between fleet synchronisation points, replicas are independent: the
// only couplings are dispatch (routing new work in), lifecycle actions
// (stalls, deaths, scale events on c.life), and handoff completions
// (which sit in c.pending at their ReadyAt stamps). So once dispatch
// has drained every observable arrival and the emission queue is empty,
// the fleet may advance every steppable replica concurrently up to the
// safe horizon
//
//	h = min(next lifecycle stamp, next pending stamp)
//
// without any replica observing state another replica could change.
// Each candidate batches its steps via Session.StepUntilClocked; the
// per-replica runs are then merged back into one stream ordered by
// (pre-step clock, replica index) — exactly the serial lockstep pick
// order (min-clock replica, ties to the lowest index) — so the emitted
// Event sequence is byte-identical to the serial path at any worker
// count.
//
// Why the merge is exact: while any candidate's clock trails h, a
// serial dispatch pass is a no-op (it returns at head.at > horizon
// before consulting admission, so the deferred counter can't drift),
// tickLife fires nothing (every lifecycle stamp is ≥ h), no replica
// gains or loses work, and a session's pre-step clocks are
// non-decreasing — so replaying the runs in (clock, index) order
// reproduces the serial pick sequence step for step. Draining replicas
// that empty mid-window retire immediately after their final event,
// where the serial path's queued ReplicaDead record would pop.
//
// Disaggregated fleets are excluded (Step gates on !c.pools.Pooled()):
// an export-mode prefill step schedules a handoff at a transfer-priced
// ReadyAt that cannot be known before the step runs, so no horizon is
// safe ahead of it.

// advanceWindow runs one parallel window: it collects the steppable
// replicas whose clocks trail the safe horizon, fans them out to at
// most c.workers goroutines, and merges the batched runs into c.queue
// for Step to drain. It reports false — leaving the cluster untouched —
// when no replica can advance (the serial path then applies lifecycle
// actions or declares the fleet done).
func (c *Cluster) advanceWindow() bool {
	h := math.Inf(1)
	if at, _, ok := c.life.PeekMin(); ok {
		h = at
	}
	if at, _, ok := c.pending.PeekMin(); ok && at < h {
		h = at
	}
	cands := c.cands[:0]
	for i := range c.replicas {
		if c.steppable(i) && c.replicas[i].eng.Clock() < h {
			cands = append(cands, i)
		}
	}
	c.cands = cands
	if len(cands) == 0 {
		return false
	}
	k := c.workers
	if k > len(cands) {
		k = len(cands)
	}
	if k <= 1 {
		for _, i := range cands {
			c.runReplica(i, h)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(k)
		for w := 0; w < k; w++ {
			go func() {
				defer wg.Done()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(cands) {
						return
					}
					c.runReplica(cands[n], h)
				}
			}()
		}
		wg.Wait()
	}
	c.mergeWindow(cands)
	return true
}

// runReplica batches replica i's steps until its clock reaches the
// horizon, recording each step's pre-step clock as its merge key. A
// session that refuses to step with work pending is an accounting bug,
// exactly as on the serial path.
func (c *Cluster) runReplica(i int, h float64) {
	r := c.replicas[i]
	r.runEvs, r.runClocks = r.ses.StepUntilClocked(h, r.runEvs[:0], r.runClocks[:0])
	if r.eng.Clock() < h && r.ses.Pending() > 0 {
		panic(fmt.Sprintf("cluster: replica %d session refused to step with %d pending",
			i, r.ses.Pending()))
	}
}

// mergeWindow interleaves the candidates' batched runs into c.queue,
// which dispatch has just emptied, in (pre-step clock, replica index)
// order — the serial pick order — folding each step into the fleet
// tally as it lands, renewing leases when a replica's run exhausts, and
// retiring draining replicas that emptied (their ReplicaDead record
// lands immediately after their final step, where the serial queue pop
// would emit it). The candidate list is ascending, so a strict < scan
// picks the lowest index on clock ties.
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
		c.tally.Add(ev)
		c.queue = append(c.queue, Event{Replica: bi, StepEvent: ev})
		if cursors[best] == len(r.runEvs) {
			r.lease = r.eng.Clock()
			c.retireDrained(bi, r.eng.Clock())
		}
	}
}
