package runtimes

import (
	"context"
	"testing"

	"lasvegas/internal/adaptive"
	"lasvegas/internal/csp"
	"lasvegas/internal/problems"
)

func queensFactory(size int) func() (csp.Problem, error) {
	return func() (csp.Problem, error) { return problems.New(problems.Queens, size) }
}

func TestCollectBasics(t *testing.T) {
	c, err := Collect(context.Background(), queensFactory(16), adaptive.Params{}, 30, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Runs != 30 || len(c.Iterations) != 30 || len(c.Seconds) != 30 {
		t.Fatalf("campaign shape: %+v", c)
	}
	if c.Problem != "queens-16" {
		t.Errorf("problem name %q", c.Problem)
	}
	for i, it := range c.Iterations {
		if it <= 0 {
			t.Errorf("run %d has %v iterations", i, it)
		}
		if c.Seconds[i] < 0 {
			t.Errorf("run %d has negative seconds", i)
		}
	}
}

func TestCollectDeterministicIterations(t *testing.T) {
	// Iteration counts must be identical across collections with the
	// same seed, regardless of worker count (scheduling-independent).
	c1, err := Collect(context.Background(), queensFactory(14), adaptive.Params{}, 20, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Collect(context.Background(), queensFactory(14), adaptive.Params{}, 20, 99, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Iterations {
		if c1.Iterations[i] != c2.Iterations[i] {
			t.Fatalf("run %d: %v vs %v iterations across worker counts", i, c1.Iterations[i], c2.Iterations[i])
		}
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := Collect(context.Background(), nil, adaptive.Params{}, 5, 1, 1); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := Collect(context.Background(), queensFactory(8), adaptive.Params{}, 0, 1, 1); err == nil {
		t.Error("0 runs accepted")
	}
}

func TestCollectPropagatesBudgetFailure(t *testing.T) {
	// An impossible budget must surface as an error, not hang.
	factory := func() (csp.Problem, error) { return problems.New(problems.Costas, 15) }
	_, err := Collect(context.Background(), factory, adaptive.Params{MaxIterations: 10}, 4, 1, 2)
	if err == nil {
		t.Error("budget exhaustion not propagated")
	}
}

func TestSummaries(t *testing.T) {
	c := &Campaign{
		Problem:    "synthetic",
		Runs:       4,
		Iterations: []float64{10, 20, 30, 100},
		Seconds:    []float64{0.1, 0.2, 0.3, 1.0},
	}
	it := c.IterationSummary()
	if it.Min != 10 || it.Max != 100 || it.Mean != 40 || it.Median != 25 {
		t.Errorf("iteration summary %+v", it)
	}
	ts := c.TimeSummary()
	if ts.Min != 0.1 || ts.Max != 1.0 {
		t.Errorf("time summary %+v", ts)
	}
}
