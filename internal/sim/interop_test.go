package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// drain pops q to exhaustion, advancing *now to each item's stamp
// before running it — the event loop a callback queue drives.
func drain(q *Queue[func()], now *float64) {
	for {
		at, fn, ok := q.PopMin()
		if !ok {
			return
		}
		*now = at
		fn()
	}
}

// TestTwoSessionsInterleaveDeterministically drives two independent
// serving sessions — each a self-rescheduling worker with its own
// resource timeline — on one shared event clock, and pins the invariant
// the cluster's lockstep fleet advance relies on: the interleaving of
// their events is a pure function of the timestamps, reproducible run
// to run, globally time-ordered, and FIFO among equal stamps.
func TestTwoSessionsInterleaveDeterministically(t *testing.T) {
	type fired struct {
		Worker int
		At     float64
	}
	run := func() []fired {
		var q Queue[func()]
		var now float64
		var order []fired
		tls := []*Timeline{NewTimeline("s0"), NewTimeline("s1")}
		// Deterministic unequal step costs: the two sessions drift apart
		// and re-cross repeatedly, exercising every interleaving shape.
		durs := []float64{0.3, 0.45}
		var step func(w, n int)
		step = func(w, n int) {
			order = append(order, fired{w, now})
			if n == 0 {
				return
			}
			end := now + durs[w]
			tls[w].Add(now, end, fmt.Sprintf("s%d-step", w))
			q.Push(end, func() { step(w, n-1) })
		}
		q.Push(0, func() { step(0, 6) })
		q.Push(0, func() { step(1, 4) })
		drain(&q, &now)
		return order
	}

	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equal-input runs interleaved differently:\n%v\n%v", a, b)
	}
	if len(a) != 12 { // 7 events for session 0, 5 for session 1
		t.Fatalf("fired %d events, want 12: %v", len(a), a)
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("clock ran backwards at event %d: %v", i, a)
		}
	}
	// Both sessions schedule their first step at t=0; session 0 was
	// scheduled first and must fire first (FIFO among equal stamps).
	if a[0].Worker != 0 || a[1].Worker != 1 || a[0].At != 0 || a[1].At != 0 {
		t.Fatalf("equal-stamp events fired out of scheduling order: %v", a[:2])
	}
	// The sessions' timelines never share reservations, so each advances
	// at its own step cost: 6 steps of 0.3 vs 4 of 0.45.
	if got := a[len(a)-1]; got.At != 1.8 {
		t.Fatalf("final event at %v, want 1.8", got.At)
	}
}

// TestLockstepAdvanceMatchesEventQueue replays the same two-session
// workload through the cluster-style lockstep loop — repeatedly step
// whichever session's next event time is minimal, ties to the lowest
// index — and checks it visits events in exactly the order the shared
// event queue fires them. This is why a fleet of per-replica clocks can
// be advanced without a global queue and still be deterministic. The
// step costs are chosen so the sessions never collide after t=0: at an
// exact tie the two advances agree only up to their tie-break policies
// (the queue is insertion-FIFO, the lockstep loop is lowest-index), so
// the order-equality claim is for distinct stamps — which float64
// arithmetic makes the overwhelmingly common case.
func TestLockstepAdvanceMatchesEventQueue(t *testing.T) {
	durs := []float64{0.3, 0.7} // first shared multiple (2.1) is past both horizons
	steps := []int{7, 3}

	// Shared-queue reference: one queue, two self-rescheduling workers.
	type fired struct {
		Worker int
		At     float64
	}
	var want []fired
	{
		var q Queue[func()]
		var now float64
		var step func(w, n int)
		step = func(w, n int) {
			want = append(want, fired{w, now})
			if n > 1 {
				q.Push(now+durs[w], func() { step(w, n-1) })
			}
		}
		q.Push(0, func() { step(0, steps[0]) })
		q.Push(0, func() { step(1, steps[1]) })
		drain(&q, &now)
	}

	// Lockstep loop: each session is an isolated clock; the driver picks
	// the trailing one (ties to the lowest index) — the cluster's Step.
	var got []fired
	clocks := []float64{0, 0}
	left := append([]int(nil), steps...)
	for left[0] > 0 || left[1] > 0 {
		pick := -1
		for w := range clocks {
			if left[w] == 0 {
				continue
			}
			if pick < 0 || clocks[w] < clocks[pick] {
				pick = w
			}
		}
		got = append(got, fired{pick, clocks[pick]})
		clocks[pick] += durs[pick]
		left[pick]--
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lockstep advance diverged from the shared event queue:\nqueue:    %v\nlockstep: %v",
			want, got)
	}
}
