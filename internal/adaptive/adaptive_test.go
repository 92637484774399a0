package adaptive

import (
	"context"
	"errors"
	"testing"
	"time"

	"lasvegas/internal/csp"
	"lasvegas/internal/problems"
	"lasvegas/internal/xrand"
)

func solveKind(t *testing.T, kind problems.Kind, size int, seed uint64) Result {
	t.Helper()
	p, err := problems.New(kind, size)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Params{})
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunContext(context.Background(), xrand.New(seed))
	if !res.Solved {
		t.Fatalf("%s size %d not solved: %+v", kind, size, res.Stats)
	}
	if !csp.Validate(p, res.Solution) {
		t.Fatalf("%s produced a non-permutation", kind)
	}
	if c := p.Cost(res.Solution); c != 0 {
		t.Fatalf("%s solution has cost %d", kind, c)
	}
	return res
}

func TestSolvesAllInterval(t *testing.T) {
	res := solveKind(t, problems.AllInterval, 12, 1)
	if res.Stats.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestSolvesMagicSquare(t *testing.T) {
	solveKind(t, problems.MagicSquare, 5, 2)
}

func TestSolvesCostas(t *testing.T) {
	solveKind(t, problems.Costas, 9, 3)
}

func TestSolvesQueens(t *testing.T) {
	solveKind(t, problems.Queens, 50, 4)
}

func TestRuntimeIsRandomVariable(t *testing.T) {
	// Las Vegas property: different seeds give different runtimes (the
	// paper's entire premise). 20 runs must not all take the same
	// number of iterations.
	p, _ := problems.New(problems.Queens, 20)
	iters := map[int64]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		s, _ := New(p, Params{})
		res := s.Run(xrand.New(seed))
		if !res.Solved {
			t.Fatalf("seed %d unsolved", seed)
		}
		iters[res.Stats.Iterations] = true
	}
	if len(iters) < 5 {
		t.Errorf("iteration counts suspiciously concentrated: %v", iters)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p1, _ := problems.New(problems.AllInterval, 12)
	p2, _ := problems.New(problems.AllInterval, 12)
	s1, _ := New(p1, Params{})
	s2, _ := New(p2, Params{})
	r1 := s1.Run(xrand.New(99))
	r2 := s2.Run(xrand.New(99))
	if r1.Stats.Iterations != r2.Stats.Iterations {
		t.Errorf("same seed, different runtimes: %d vs %d", r1.Stats.Iterations, r2.Stats.Iterations)
	}
	for i := range r1.Solution {
		if r1.Solution[i] != r2.Solution[i] {
			t.Fatal("same seed, different solutions")
		}
	}
}

func TestIterationBudget(t *testing.T) {
	// Hard instance with a tiny budget must stop with an error.
	p, _ := problems.New(problems.Costas, 14)
	s, err := New(p, Params{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(xrand.New(5))
	if res.Solved {
		t.Skip("solved within 50 iterations — exceptionally lucky seed")
	}
	if res.Err == nil {
		t.Error("budget exhaustion must set Err")
	}
	if res.Stats.Iterations > 50 {
		t.Errorf("ran %d iterations past the budget", res.Stats.Iterations)
	}
	if res.Solution == nil || res.Cost <= 0 {
		t.Error("budget-exhausted result should carry the best configuration")
	}
}

func TestContextCancellation(t *testing.T) {
	p, _ := problems.New(problems.Costas, 16)
	s, _ := New(p, Params{CheckEvery: 64})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- s.RunContext(ctx, xrand.New(1)) }()
	cancel()
	select {
	case res := <-done:
		if res.Solved {
			t.Skip("solved before cancellation took effect")
		}
		if !errors.Is(res.Err, ErrInterrupted) {
			t.Errorf("want ErrInterrupted, got %v", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation not honoured within 10s")
	}
}

func TestRestartsTriggered(t *testing.T) {
	p, _ := problems.New(problems.Queens, 16)
	s, _ := New(p, Params{MaxIterationsPerRestart: 10})
	res := s.Run(xrand.New(3))
	if !res.Solved {
		t.Fatal("unsolved")
	}
	if res.Stats.Iterations > 10 && res.Stats.Restarts == 0 {
		t.Error("long run with a 10-iteration restart cap recorded no restarts")
	}
}

func TestParamsDefaulting(t *testing.T) {
	p, _ := problems.New(problems.Queens, 10)
	s, err := New(p, Params{})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Params()
	if got.TabuTenure <= 0 || got.ResetLimit <= 0 || got.ResetFraction <= 0 || got.CheckEvery <= 0 {
		t.Errorf("defaults not applied: %+v", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Params{}); err == nil {
		t.Error("nil problem accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	p, _ := problems.New(problems.AllInterval, 14)
	s, _ := New(p, Params{})
	res := s.Run(xrand.New(8))
	if !res.Solved {
		t.Fatal("unsolved")
	}
	if res.Stats.Swaps > res.Stats.Iterations {
		t.Errorf("more swaps (%d) than iterations (%d)", res.Stats.Swaps, res.Stats.Iterations)
	}
	if res.Stats.Iterations <= 0 {
		t.Error("no iterations counted")
	}
}

// TestNonIncrementalFallback runs the solver against a problem that
// hides its incremental interface, exercising the probing paths.
type plainQueens struct{ inner csp.Problem }

func (p plainQueens) Size() int          { return p.inner.Size() }
func (p plainQueens) Cost(sol []int) int { return p.inner.Cost(sol) }
func (p plainQueens) Name() string       { return "plain-" + p.inner.Name() }

func TestNonIncrementalFallback(t *testing.T) {
	inner, _ := problems.New(problems.Queens, 8)
	s, err := New(plainQueens{inner}, Params{})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(xrand.New(77))
	if !res.Solved {
		t.Fatal("fallback solver failed on 8-queens")
	}
	if c := inner.Cost(res.Solution); c != 0 {
		t.Fatalf("fallback solution has cost %d", c)
	}
}

// TestSolveAllocationsBounded checks that a whole solve allocates only
// while it is set up: resets and restarts rebuild the incremental state
// in place, so the count must stay under a bound that the run's number
// of resets exceeds many times over.
func TestSolveAllocationsBounded(t *testing.T) {
	const bound = 16
	var res Result
	allocs := testing.AllocsPerRun(3, func() {
		p, err := problems.New(problems.AllInterval, 14)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(p, Params{})
		if err != nil {
			t.Fatal(err)
		}
		res = s.Run(xrand.New(8))
	})
	if !res.Solved {
		t.Fatal("unsolved")
	}
	if res.Stats.Resets < 4*bound {
		t.Fatalf("only %d resets: the run no longer tells per-reset allocations apart", res.Stats.Resets)
	}
	if allocs > bound {
		t.Errorf("solve made %.0f allocations over %d resets, want ≤ %d", allocs, res.Stats.Resets, bound)
	}
}
