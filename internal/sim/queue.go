// Package sim provides the discrete-event simulation core the hardware
// substrate runs on: a deterministic timestamped event queue and
// per-resource span timelines that record what ran where (the simulated
// equivalent of a CUDA-stream timeline).
//
// Time is modelled in float64 seconds. Determinism matters more than
// wall-clock fidelity: events at equal timestamps fire in push order.
package sim

// entry is one queued item: a payload keyed by (At, seq).
type entry[T any] struct {
	at  float64
	seq int64
	v   T
}

// Queue is the deterministic timestamped min-queue the simulation core
// is built on: a binary min-heap keyed by (stamp, push order), so items
// pop in ascending stamp order with FIFO tie-break among equal stamps.
// It is the one event-queue implementation the engine's run loop and
// the cluster's dispatch and lifecycle queues share.
//
// Contract:
//
//   - Push(at, v) enqueues v at stamp `at`. Any stamp is accepted —
//     causality (refusing to schedule in the past) is the caller's
//     policy, not the queue's; the Session's arrival queue deliberately
//     accepts past stamps (late submissions of already-arrived requests
//     are legal).
//   - PopMin returns the queued item with the minimal (stamp, push
//     order) key. Two items at the same stamp pop in Push order, so a
//     run's event order is a pure function of its inputs.
//   - Entries are stored by value; the queue retains its backing
//     storage across Reset, so steady-state reuse allocates nothing.
//
// The zero value is an empty, usable queue. A Queue is not safe for
// concurrent use; every user drives it from one goroutine.
type Queue[T any] struct {
	h       []entry[T]
	nextSeq int64
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push enqueues v at stamp at.
func (q *Queue[T]) Push(at float64, v T) {
	q.h = append(q.h, entry[T]{at: at, seq: q.nextSeq, v: v})
	q.nextSeq++
	q.up(len(q.h) - 1)
}

// PeekMin reports the minimal item without removing it; ok is false on
// an empty queue.
func (q *Queue[T]) PeekMin() (at float64, v T, ok bool) {
	if len(q.h) == 0 {
		return 0, v, false
	}
	return q.h[0].at, q.h[0].v, true
}

// PopMin removes and returns the minimal item; ok is false on an empty
// queue.
func (q *Queue[T]) PopMin() (at float64, v T, ok bool) {
	if len(q.h) == 0 {
		return 0, v, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = entry[T]{} // release the payload for the collector
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return top.at, top.v, true
}

// Reset empties the queue, keeping its backing storage for reuse. The
// push-order counter is not rewound; relative FIFO ordering across a
// Reset stays monotone.
func (q *Queue[T]) Reset() {
	clear(q.h)
	q.h = q.h[:0]
}

// Scan visits every queued item in unspecified (heap) order, for
// metrics that need a census — queue depth behind a stamp, payload
// sums — without disturbing the heap. Mutating the queue inside f is
// not allowed.
func (q *Queue[T]) Scan(f func(at float64, v T)) {
	for i := range q.h {
		f(q.h[i].at, q.h[i].v)
	}
}

// less orders entries by (stamp, push order).
func (q *Queue[T]) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

// up restores the heap invariant from child i toward the root.
func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// down restores the heap invariant from parent i toward the leaves.
func (q *Queue[T]) down(i int) {
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			return
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}
