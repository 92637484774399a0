package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunEveryIndexOnce: each index runs exactly once, whatever the
// worker count, including workers ≤ 0 (GOMAXPROCS) and workers > n.
func TestRunEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{0, 17}, {-3, 17}, {1, 17}, {2, 17}, {4, 17}, {100, 3}, {3, 1}, {4, 0},
	} {
		t.Run(fmt.Sprintf("w%d-n%d", tc.workers, tc.n), func(t *testing.T) {
			counts := make([]atomic.Int32, tc.n)
			if err := Run(tc.workers, tc.n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times", i, c)
				}
			}
		})
	}
}

// TestRunBoundsGoroutines: no more than min(workers, n) calls are in
// flight at once.
func TestRunBoundsGoroutines(t *testing.T) {
	for _, tc := range []struct{ workers, n, bound int }{{3, 40, 3}, {100, 4, 4}} {
		var inFlight, peak atomic.Int32
		if err := Run(tc.workers, tc.n, func(int) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if p := int(peak.Load()); p > tc.bound {
			t.Errorf("workers %d, n %d: %d calls in flight, want ≤ %d", tc.workers, tc.n, p, tc.bound)
		}
	}
}

// TestRunClaimsInAscendingOrder: when fn(i) starts, every lower index
// has been claimed, and each worker holds at most one claimed index
// it has not yet started, so at least i+1−(workers−1) calls have
// started. Serially the order is exact.
func TestRunClaimsInAscendingOrder(t *testing.T) {
	const workers, n = 3, 300
	var (
		mu      sync.Mutex
		started int
	)
	if err := Run(workers, n, func(i int) error {
		mu.Lock()
		started++
		if started < i+1-(workers-1) {
			t.Errorf("index %d started after only %d calls", i, started)
		}
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var order []int
	if err := Run(1, 5, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("serial order %v", order)
	}
}

// TestRunLowestIndexError: when a higher index fails first in time,
// Run still reports the lowest failed index — the error a serial
// loop would have stopped at.
func TestRunLowestIndexError(t *testing.T) {
	err3, err5 := errors.New("three"), errors.New("five")
	fiveFailed := make(chan struct{})
	err := Run(4, 50, func(i int) error {
		switch i {
		case 3:
			<-fiveFailed
			return err3
		case 5:
			close(fiveFailed)
			return err5
		}
		return nil
	})
	if !errors.Is(err, err3) {
		t.Fatalf("Run = %v, want the index-3 error", err)
	}
	// Serially the first failure stops the loop.
	calls := 0
	err = Run(1, 10, func(i int) error {
		calls++
		if i >= 2 {
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 2" || calls != 3 {
		t.Fatalf("serial: err %v after %d calls, want index 2 after 3", err, calls)
	}
}

// TestRunStopsClaimingAfterFailure: once fn(0) fails, the other
// worker finishes what it holds and claims nothing new. Each other
// call takes a millisecond, so claiming on regardless would run all
// of them.
func TestRunStopsClaimingAfterFailure(t *testing.T) {
	const n = 1000
	boom := errors.New("boom")
	var calls atomic.Int32
	err := Run(2, n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
	if c := calls.Load(); c >= n/2 {
		t.Errorf("%d of %d indices ran after index 0 failed", c, n)
	}
}

// TestRunInline: one worker or one task runs on the caller's
// goroutine, so serial callers start no goroutine.
func TestRunInline(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 4}, {8, 1}} {
		if err := Run(tc.workers, tc.n, func(int) error {
			buf := make([]byte, 4096)
			if stack := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(stack, "TestRunInline") {
				t.Errorf("workers %d, n %d: fn ran off the caller's goroutine:\n%s", tc.workers, tc.n, stack)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunLeavesNoGoroutine: every worker has exited once Run returns,
// on success and on failure.
func TestRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, fail := range []bool{false, true} {
		_ = Run(4, 64, func(i int) error {
			if fail && i == 10 {
				return errors.New("fail")
			}
			return nil
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
