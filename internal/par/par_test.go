package par

import (
	"sync/atomic"
	"testing"
)

// Every index runs exactly once, whatever the worker count, and each
// call's result lands in the slot its index owns.
func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 23
		var runs atomic.Int64
		slots := make([]int, n)
		Do(workers, n, func(i int) {
			runs.Add(1)
			slots[i]++
		})
		if got := runs.Load(); got != n {
			t.Fatalf("workers=%d made %d calls, want %d", workers, got, n)
		}
		for i, c := range slots {
			if c != 1 {
				t.Fatalf("workers=%d ran index %d %d times, want once", workers, i, c)
			}
		}
	}
}

// A panicking call surfaces on the caller's goroutine with its own
// value, not as a crash on a worker.
func TestDoRepanicsOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || msg != "call 3 exploded" {
					t.Fatalf("workers=%d propagated %v, want the call's panic value", workers, r)
				}
			}()
			Do(workers, 8, func(i int) {
				if i == 3 {
					panic("call 3 exploded")
				}
			})
		}()
	}
}

// Once a call panics no further call starts: a panic at the first of
// 10,000 cheap calls leaves most of them unstarted.
func TestDoStopsStartingCallsAfterPanic(t *testing.T) {
	const n = 10000
	var started atomic.Int64
	func() {
		defer func() {
			if r := recover(); r != "first call exploded" {
				t.Fatalf("propagated %v, want the first call's panic value", r)
			}
		}()
		Do(2, n, func(i int) {
			started.Add(1)
			if i == 0 {
				panic("first call exploded")
			}
		})
	}()
	if got := started.Load(); got >= n/2 {
		t.Fatalf("%d of %d calls started after the first panicked, want most left unstarted", got, n)
	}
}
