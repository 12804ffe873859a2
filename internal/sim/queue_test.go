package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestQueueOrdersByStamp(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	var got []string
	for {
		_, v, ok := q.PopMin()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("pop order = %v, want [a b c]", got)
	}
}

func TestQueueFIFOAtEqualStamps(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 32; i++ {
		q.Push(1, i)
	}
	for i := 0; i < 32; i++ {
		_, v, ok := q.PopMin()
		if !ok || v != i {
			t.Fatalf("equal-stamp pop %d = %d (ok=%v), want FIFO", i, v, ok)
		}
	}
}

func TestQueuePeekMin(t *testing.T) {
	var q Queue[int]
	if _, _, ok := q.PeekMin(); ok {
		t.Fatal("PeekMin on empty queue should report !ok")
	}
	q.Push(5, 50)
	q.Push(2, 20)
	at, v, ok := q.PeekMin()
	if !ok || at != 2 || v != 20 {
		t.Fatalf("PeekMin = (%v, %v, %v), want (2, 20, true)", at, v, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("PeekMin must not remove: len = %d", q.Len())
	}
	if at, v, _ := q.PopMin(); at != 2 || v != 20 {
		t.Fatalf("PopMin after peek = (%v, %v)", at, v)
	}
}

// The queue accepts stamps behind items already popped: causality is
// the caller's policy (the Session's arrival queue takes late
// submissions), only ordering is the queue's.
func TestQueueAcceptsPastStamps(t *testing.T) {
	var q Queue[string]
	q.Push(10, "late")
	q.Push(1, "early")
	q.PopMin()
	q.Push(0.5, "past")
	at, v, _ := q.PopMin()
	if at != 0.5 || v != "past" {
		t.Fatalf("past-stamped item should pop first, got (%v, %q)", at, v)
	}
}

func TestQueueResetKeepsStorage(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(float64(i), i)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("len after Reset = %d", q.Len())
	}
	if cap(q.h) < 100 {
		t.Fatalf("Reset must retain backing storage, cap = %d", cap(q.h))
	}
	// FIFO seq survives the reset: new pushes at one stamp still order.
	q.Push(1, 7)
	q.Push(1, 8)
	if _, v, _ := q.PopMin(); v != 7 {
		t.Fatal("FIFO broken after Reset")
	}
}

func TestQueueScanVisitsAll(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(float64(i%3), i)
	}
	sum, behind := 0, 0
	q.Scan(func(at float64, v int) {
		sum += v
		if at <= 1 {
			behind++
		}
	})
	if sum != 45 {
		t.Fatalf("Scan payload sum = %d, want 45", sum)
	}
	if behind != 7 {
		t.Fatalf("Scan stamp census = %d, want 7", behind)
	}
}

// Property: any push sequence pops in (stamp, push order) order.
func TestQueueRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type item struct {
		at  float64
		seq int
	}
	var q Queue[item]
	var want []item
	for i := 0; i < 500; i++ {
		at := float64(rng.Intn(50)) // coarse stamps force ties
		it := item{at, i}
		q.Push(at, it)
		want = append(want, it)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	for i, w := range want {
		_, got, ok := q.PopMin()
		if !ok || got != w {
			t.Fatalf("pop %d = %v (ok=%v), want %v", i, got, ok, w)
		}
	}
}
