// Package par fans independent calls out over a bounded set of
// goroutines. It is the one worker pool the grid runner and the fleet's
// horizon windows share.
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls f(0), …, f(n-1), each once, on at most workers goroutines,
// and returns when every call has returned. With one worker, or at most
// one call, it runs them in index order on the caller's goroutine.
// Otherwise calls run concurrently and in any order, so f(i) may write
// only state that index i owns. Once a call panics Do starts no further
// call, and after the calls already running return it re-panics the
// first panic's value on the caller.
func Do(workers, n int, f func(i int)) {
	k := min(workers, n)
	if k <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		panicked any
		wg       sync.WaitGroup
	)
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				// Only the first panic's goroutine wins the swap, so
				// panicked has one writer; wg.Wait orders its read.
				if r := recover(); r != nil && stopped.CompareAndSwap(false, true) {
					panicked = r
				}
			}()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		panic(panicked)
	}
}
