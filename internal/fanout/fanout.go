// Package fanout runs a fixed set of independent, indexed tasks on a
// bounded number of goroutines: the one worker pool behind campaign
// collection, the experiment Lab, candidate fitting and restart-policy
// tables.
//
// Its callers keep determinism by giving every task its own random
// stream and its own result slot, so the outcome never depends on
// which goroutine ran a task or when.
package fanout

import (
	"runtime"
	"sync"
)

// Run calls fn(i) for every i in [0, n) on at most workers goroutines
// (workers ≤ 0 means GOMAXPROCS) and returns once every started call
// has returned.
//
// Indices are claimed in ascending order, and no index is claimed
// after a call has failed. Run returns the error of the lowest failed
// index, which is therefore the error a serial loop that stops at its
// first failure would return. With one worker or one task the calls
// run inline on the caller's goroutine.
func Run(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstErr error
		errAt    = n
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return -1
		}
		next++
		return next - 1
	}
	fail := func(i int, err error) {
		mu.Lock()
		if i < errAt {
			firstErr, errAt = err, i
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				if err := fn(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
