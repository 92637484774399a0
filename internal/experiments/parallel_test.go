package experiments

import (
	"context"
	"testing"
)

// TestRunAllParallelMatchesSerial: every artifact derives its random
// streams from the config seed and its own id, so the parallel worker
// pool must render bit-identically to a Workers=1 serial pass.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	serialLab := NewLab(Config{Paper: true, SimReps: 300, Workers: 1})
	parallelLab := NewLab(Config{Paper: true, SimReps: 300, Workers: 8})
	ctx := context.Background()
	serial, err := serialLab.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := parallelLab.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d artifacts, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("order diverged at %d: %s vs %s", i, serial[i].ID, parallel[i].ID)
		}
		if serial[i].Render() != parallel[i].Render() {
			t.Errorf("%s: parallel render differs from serial", serial[i].ID)
		}
		if serial[i].CSV != parallel[i].CSV {
			t.Errorf("%s: parallel CSV differs from serial", serial[i].ID)
		}
	}
}

// TestRunAllConcurrentLabSharing: a single Lab used by RunAll must
// memoize shared work safely under concurrency (the once-cells); in
// paper mode this exercises the cache plumbing without campaigns.
func TestRunAllReusableAcrossCalls(t *testing.T) {
	l := NewLab(Config{Paper: true, SimReps: 300})
	ctx := context.Background()
	first, err := l.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.RunAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Render() != second[i].Render() {
			t.Errorf("%s: second RunAll differs", first[i].ID)
		}
	}
}

// BenchmarkRunAllSerialVsParallel compares the parallel artifact pool
// with one worker in paper mode. The pool cannot scale this set: the
// bootstrap artifact is ~146 of ~155 ms of serial work, so the
// parallel wall clock is bounded below by that one artifact (on two
// vCPUs at -count 6, serial 169–192 ms against parallel 168–187 ms).
func BenchmarkRunAllSerialVsParallel(b *testing.B) {
	run := func(b *testing.B, workers int) {
		lab := NewLab(Config{Paper: true, SimReps: 3000, Workers: workers})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lab.RunAll(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}
