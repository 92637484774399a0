package store

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lasvegas"
)

// fixturePath points at the repository's committed fixed-seed
// Costas-13 campaign (the CI smoke fixture).
var fixturePath = filepath.Join("..", "..", "testdata", "campaign_costas13.json")

func testCampaign(t *testing.T) *lasvegas.Campaign {
	t.Helper()
	c, err := lasvegas.LoadCampaign(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testFit is the compute the serve layer runs in Entry.Fit: FitAll on
// a slot of gate, failing with ErrNoAcceptableFit when no family is
// accepted.
func testFit(ctx context.Context, gate Gate, pred *lasvegas.Predictor, c *lasvegas.Campaign) func() ([]lasvegas.Candidate, error) {
	return func() ([]lasvegas.Candidate, error) {
		if err := gate.Acquire(ctx); err != nil {
			return nil, err
		}
		defer gate.Release()
		cands, err := pred.FitAll(c)
		if err != nil {
			return nil, err
		}
		for _, cand := range cands {
			if cand.Err == nil && cand.Model != nil && cand.Model.Accepted() {
				return cands, nil
			}
		}
		return nil, lasvegas.ErrNoAcceptableFit
	}
}

// TestSingleFlightFit hammers one entry from many goroutines and
// requires exactly one of them to compute and every caller to receive
// the identical candidate table. The race detector (CI's race job
// covers this package) guards the locking.
func TestSingleFlightFit(t *testing.T) {
	s := NewMemory(16)
	gate := NewGate(2)
	pred := lasvegas.New()
	e, err := s.Add(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 32
	tables := make([][]lasvegas.Candidate, callers)
	var computes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cands, computed, err := e.Fit.Do(testFit(context.Background(), gate, pred, e.Campaign))
			if err != nil {
				t.Errorf("fit %d: %v", i, err)
				return
			}
			if computed {
				computes.Add(1)
			}
			tables[i] = cands
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d callers computed the fit, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if &tables[i][0] != &tables[0][0] {
			t.Fatalf("caller %d received a different candidate table — fit ran more than once", i)
		}
	}
}

// TestFitErrorCached: a deterministic fit failure (censored campaign
// under a complete-sample-only predictor) is cached like a success,
// so retries don't re-run the estimators.
func TestFitErrorCached(t *testing.T) {
	s := NewMemory(16)
	gate := NewGate(1)
	c := &lasvegas.Campaign{
		Problem:    "x",
		Runs:       3,
		Iterations: []float64{1, 2, 3},
		Censored:   []int{1},
		Budget:     2,
	}
	e, err := s.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	fit := testFit(context.Background(), gate, lasvegas.New(), c)
	for i := 0; i < 2; i++ {
		_, computed, err := e.Fit.Do(fit)
		if !errors.Is(err, lasvegas.ErrCensored) {
			t.Fatalf("fit %d: %v, want ErrCensored", i, err)
		}
		if computed != (i == 0) {
			t.Errorf("fit %d: computed = %v", i, computed)
		}
	}
	if _, done, err := e.Fit.Peek(); !done || !errors.Is(err, lasvegas.ErrCensored) {
		t.Errorf("fit error was not cached: done %v, err %v", done, err)
	}
}

// TestCancelledWaiterDoesNotPoison: a caller whose context dies while
// waiting for a gate slot must not mark the entry failed for everyone
// else.
func TestCancelledWaiterDoesNotPoison(t *testing.T) {
	s := NewMemory(16)
	gate := NewGate(1)
	pred := lasvegas.New()
	e, err := s.Add(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Fit.Do(testFit(ctx, gate, pred, e.Campaign)); !errors.Is(err, context.Canceled) {
		t.Fatalf("fit with dead ctx: %v, want context.Canceled", err)
	}
	if _, done, _ := e.Fit.Peek(); done {
		t.Fatal("a cancelled fit was cached")
	}
	<-gate // free the slot
	if cands, _, err := e.Fit.Do(testFit(context.Background(), gate, pred, e.Campaign)); err != nil || cands == nil {
		t.Fatalf("fit after cancelled waiter: %v (candidates %v), want success", err, cands)
	}
}

// TestCellPeekNeverBlocks: a peek during a compute in flight reports
// nothing cached rather than waiting, and sees the outcome afterwards.
func TestCellPeekNeverBlocks(t *testing.T) {
	var c Cell[int]
	started, release := make(chan struct{}), make(chan struct{})
	go c.Do(func() (int, error) {
		close(started)
		<-release
		return 7, nil
	})
	<-started
	if _, done, _ := c.Peek(); done {
		t.Fatal("peek reported an outcome while the compute was in flight")
	}
	close(release)
	if v, computed, err := c.Do(func() (int, error) { return 0, errors.New("second compute") }); v != 7 || computed || err != nil {
		t.Fatalf("Do after the compute = %v, %v, %v; want the cached 7", v, computed, err)
	}
	if v, done, err := c.Peek(); v != 7 || !done || err != nil {
		t.Fatalf("Peek = %v, %v, %v; want the cached 7", v, done, err)
	}
}

// TestCellNestedComputeOneSlotGate: a compute that runs another cell's
// compute, each claiming its own slot, completes on a one-slot gate —
// the policy view over the fit. A cell that held a slot across its
// compute would deadlock here.
func TestCellNestedComputeOneSlotGate(t *testing.T) {
	gate := NewGate(1)
	ctx := context.Background()
	var fit, view Cell[int]
	slot := func(fn func() (int, error)) func() (int, error) {
		return func() (int, error) {
			if err := gate.Acquire(ctx); err != nil {
				return 0, err
			}
			defer gate.Release()
			return fn()
		}
	}
	done := make(chan int)
	go func() {
		v, _, _ := view.Do(func() (int, error) {
			m, _, err := fit.Do(slot(func() (int, error) { return 20, nil }))
			if err != nil {
				return 0, err
			}
			return slot(func() (int, error) { return m + 1, nil })()
		})
		done <- v
	}()
	select {
	case v := <-done:
		if v != 21 {
			t.Fatalf("nested compute = %d, want 21", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested computes deadlocked on a one-slot gate")
	}
}

func mkCampaign(seed uint64) *lasvegas.Campaign {
	return &lasvegas.Campaign{Problem: "x", Runs: 1, Seed: seed, Iterations: []float64{float64(seed)}}
}

// TestEviction: the memory store caps entries FIFO and keeps its byte
// accounting consistent.
func TestEviction(t *testing.T) {
	s := NewMemory(2)
	first, err := s.Add(mkCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(mkCampaign(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(mkCampaign(3)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("store holds %d entries, want 2", s.Len())
	}
	if _, err := s.Get(first.ID); !errors.Is(err, ErrUnknownCampaign) {
		t.Errorf("oldest entry still present after eviction: %v", err)
	}
	st := s.Stats()
	var want int64
	for _, seed := range []uint64{2, 3} {
		data, err := mkCampaign(seed).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(data))
	}
	if st.Campaigns != 2 || st.Bytes != want {
		t.Errorf("stats %+v, want 2 campaigns and %d bytes", st, want)
	}
}

// TestCampaignIDDeterminism: ids derive from content, not identity.
func TestCampaignIDDeterminism(t *testing.T) {
	a, _, err := Encode(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Encode(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("ids differ for identical content: %q vs %q", a, b)
	}
	other := testCampaign(t)
	other.Iterations[0]++
	c, _, err := Encode(other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("id unchanged after mutating an observation")
	}
}

// TestEncodeAddEncoded: the precomputed-bytes fast path is the same
// store operation as Add — same id, same dedup.
func TestEncodeAddEncoded(t *testing.T) {
	s := NewMemory(16)
	c := testCampaign(t)
	id, data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.AddEncoded(id, data, c)
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != id {
		t.Fatalf("AddEncoded entry id %q, want %q", e.ID, id)
	}
	again, err := s.Add(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	if again != e {
		t.Error("Add after AddEncoded created a second entry for the same content")
	}
	if s.Len() != 1 {
		t.Errorf("store holds %d entries, want 1", s.Len())
	}
}

// TestOwnerPartition: every id lands on exactly one replica, the
// replica agrees with its advertised shard range, and the ranges tile
// the whole hash space.
func TestOwnerPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16} {
		var prevHi uint64
		for i := 0; i < n; i++ {
			lo, hi := ShardRange(i, n)
			if i == 0 && lo != 0 {
				t.Errorf("n=%d: first range starts at %x, want 0", n, lo)
			}
			if i > 0 && lo != prevHi+1 {
				t.Errorf("n=%d: range %d starts at %x, want %x (contiguous)", n, i, lo, prevHi+1)
			}
			if i == n-1 && hi != ^uint64(0) {
				t.Errorf("n=%d: last range ends at %x, want the top of the space", n, hi)
			}
			prevHi = hi
		}
		for seed := uint64(1); seed <= 64; seed++ {
			id, _, err := Encode(mkCampaign(seed))
			if err != nil {
				t.Fatal(err)
			}
			owner := Owner(id, n)
			if owner < 0 || owner >= n {
				t.Fatalf("Owner(%q, %d) = %d outside [0, %d)", id, n, owner, n)
			}
			if again := Owner(id, n); again != owner {
				t.Fatalf("Owner not deterministic: %d then %d", owner, again)
			}
		}
	}
}
