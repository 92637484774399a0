package store

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

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

// testFit is the fit function the serve layer installs: FitAll plus
// best-accepted selection.
func testFit(pred *lasvegas.Predictor) FitFunc {
	return func(c *lasvegas.Campaign) ([]lasvegas.Candidate, *lasvegas.Model, error) {
		cands, err := pred.FitAll(c)
		if err != nil {
			return nil, nil, err
		}
		for _, cand := range cands {
			if cand.Err == nil && cand.Model != nil && cand.Model.Accepted() {
				return cands, cand.Model, nil
			}
		}
		return nil, nil, lasvegas.ErrNoAcceptableFit
	}
}

// TestSingleFlightFit hammers one entry from many goroutines and
// requires every caller to receive the identical *Model — the proof
// that the fit ran once. The race detector (CI's race job covers this
// package) guards the locking.
func TestSingleFlightFit(t *testing.T) {
	s := NewMemory(16)
	gate := NewGate(2)
	fit := testFit(lasvegas.New())
	e, err := s.Add(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 32
	models := make([]*lasvegas.Model, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, m, err := e.Fit(context.Background(), gate, fit)
			if err != nil {
				t.Errorf("fit %d: %v", i, err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if models[i] != models[0] {
			t.Fatalf("caller %d received a different model instance — fit ran more than once", i)
		}
	}
}

// TestFitErrorCached: a deterministic fit failure (censored campaign
// under a complete-sample-only predictor) is cached like a success,
// so retries don't re-run the estimators.
func TestFitErrorCached(t *testing.T) {
	s := NewMemory(16)
	gate := NewGate(1)
	fit := testFit(lasvegas.New())
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
	for i := 0; i < 2; i++ {
		_, _, err := e.Fit(context.Background(), gate, fit)
		if !errors.Is(err, lasvegas.ErrCensored) {
			t.Fatalf("fit %d: %v, want ErrCensored", i, err)
		}
	}
	if !e.fit.done {
		t.Error("fit error was not cached")
	}
}

// TestCancelledWaiterDoesNotPoison: a caller whose context dies while
// waiting for a gate slot must not mark the entry failed for everyone
// else.
func TestCancelledWaiterDoesNotPoison(t *testing.T) {
	s := NewMemory(16)
	gate := NewGate(1)
	fit := testFit(lasvegas.New())
	e, err := s.Add(testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Fit(ctx, gate, fit); !errors.Is(err, context.Canceled) {
		t.Fatalf("fit with dead ctx: %v, want context.Canceled", err)
	}
	<-gate // free the slot
	if _, m, err := e.Fit(context.Background(), gate, fit); err != nil || m == nil {
		t.Fatalf("fit after cancelled waiter: %v (model %v), want success", err, m)
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
