package sat

import (
	"context"
	"errors"
	"testing"
	"time"

	"lasvegas/internal/xrand"
)

func TestFormulaValidate(t *testing.T) {
	good := &Formula{NumVars: 3, Clauses: []Clause{{1, -2}, {3}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Formula{
		{NumVars: 0, Clauses: []Clause{{1}}},
		{NumVars: 2, Clauses: []Clause{{}}},
		{NumVars: 2, Clauses: []Clause{{3}}},
		{NumVars: 2, Clauses: []Clause{{0}}},
		{NumVars: 2, Clauses: []Clause{{-3}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad formula %d accepted", i)
		}
	}
}

func TestEvalAndCount(t *testing.T) {
	// (x1 ∨ ¬x2) ∧ (x2 ∨ x3) ∧ (¬x1 ∨ ¬x3)
	f := &Formula{NumVars: 3, Clauses: []Clause{{1, -2}, {2, 3}, {-1, -3}}}
	assign := []bool{false, true, true, false} // x1=T x2=T x3=F
	if !f.Eval(assign) {
		t.Error("satisfying assignment rejected")
	}
	assign2 := []bool{false, false, true, false} // x1=F x2=T x3=F: clause 1 false
	if f.Eval(assign2) {
		t.Error("falsifying assignment accepted")
	}
	if n := f.CountUnsat(assign2); n != 1 {
		t.Errorf("unsat count %d, want 1", n)
	}
}

func TestRandomKSATShape(t *testing.T) {
	r := xrand.New(1)
	f, _, err := RandomPlantedKSAT(50, 200, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 200 {
		t.Fatalf("%d clauses", len(f.Clauses))
	}
	for _, c := range f.Clauses {
		if len(c) != 3 {
			t.Fatalf("clause size %d", len(c))
		}
		seen := map[int]bool{}
		for _, lit := range c {
			v := int(lit)
			if v < 0 {
				v = -v
			}
			if seen[v] {
				t.Fatal("repeated variable in clause")
			}
			seen[v] = true
		}
	}
}

func TestRandomKSATValidation(t *testing.T) {
	r := xrand.New(2)
	if _, _, err := RandomPlantedKSAT(2, 10, 3, r); err == nil {
		t.Error("n < k accepted")
	}
	if _, _, err := RandomPlantedKSAT(5, 0, 3, r); err == nil {
		t.Error("m = 0 accepted")
	}
}

func TestPlantedFormulaIsSatisfiable(t *testing.T) {
	r := xrand.New(3)
	f, planted, err := RandomPlantedKSAT(40, 170, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Eval(planted) {
		t.Fatal("planted assignment does not satisfy the formula")
	}
}

func TestWalkSATSolvesPlantedInstances(t *testing.T) {
	r := xrand.New(4)
	for trial := 0; trial < 10; trial++ {
		f, _, err := RandomPlantedKSAT(60, 240, 3, r) // ratio 4.0
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(f, Params{})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(xrand.New(uint64(trial)))
		if !res.Solved {
			t.Fatalf("trial %d unsolved: %v", trial, res.Err)
		}
		if !f.Eval(res.Assignment) {
			t.Fatalf("trial %d returned a non-model", trial)
		}
		if res.Flips < 1 {
			t.Error("no flips recorded")
		}
	}
}

func TestWalkSATRuntimeIsRandomVariable(t *testing.T) {
	r := xrand.New(5)
	f, _, err := RandomPlantedKSAT(80, 330, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	flips := map[int64]bool{}
	for seed := uint64(0); seed < 15; seed++ {
		s, _ := NewSolver(f, Params{})
		res := s.Run(xrand.New(seed))
		if !res.Solved {
			t.Fatalf("seed %d unsolved", seed)
		}
		flips[res.Flips] = true
	}
	if len(flips) < 5 {
		t.Errorf("flip counts suspiciously concentrated: %v", flips)
	}
}

func TestWalkSATBudget(t *testing.T) {
	r := xrand.New(6)
	f, _, err := RandomPlantedKSAT(100, 420, 3, r) // hard ratio 4.2
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(f, Params{MaxFlips: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(xrand.New(1))
	if res.Solved {
		t.Skip("solved in 10 flips — freak seed")
	}
	if res.Err == nil || res.Flips > 10 {
		t.Errorf("budget not enforced: flips=%d err=%v", res.Flips, res.Err)
	}
}

func TestWalkSATCancellation(t *testing.T) {
	// Every sign pattern over three variables: each assignment
	// falsifies exactly one clause, so the formula is unsatisfiable and
	// WalkSAT churns forever unless cancellation stops it.
	f := &Formula{NumVars: 3}
	for m := 0; m < 8; m++ {
		c := Clause{1, 2, 3}
		for i := range c {
			if m>>i&1 == 1 {
				c[i] = -c[i]
			}
		}
		f.Clauses = append(f.Clauses, c)
	}
	s, err := NewSolver(f, Params{CheckEvery: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() { done <- s.RunContext(ctx, xrand.New(2)) }()
	cancel()
	select {
	case res := <-done:
		if res.Solved {
			t.Skip("instance happened to be satisfiable and solved instantly")
		}
		if !errors.Is(res.Err, ErrInterrupted) {
			t.Errorf("want ErrInterrupted, got %v", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation not honoured")
	}
}

func TestIncrementalIndexConsistency(t *testing.T) {
	// After any flip sequence, satCount and the unsat list must match
	// a from-scratch recomputation.
	r := xrand.New(8)
	f, _, err := RandomPlantedKSAT(30, 120, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIndex(f)
	assignment := make([]bool, f.NumVars+1)
	for v := 1; v <= f.NumVars; v++ {
		assignment[v] = r.Float64() < 0.5
	}
	ix.reset(assignment)
	for step := 0; step < 500; step++ {
		v := 1 + r.Intn(f.NumVars)
		ix.flip(v, assignment)
		if step%50 != 0 {
			continue
		}
		unsatWant := f.CountUnsat(assignment)
		if len(ix.unsat) != unsatWant {
			t.Fatalf("step %d: unsat list %d, recompute %d", step, len(ix.unsat), unsatWant)
		}
		for ci, c := range f.Clauses {
			n := 0
			for _, lit := range c {
				if litSat(lit, assignment) {
					n++
				}
			}
			if ix.satCount[ci] != n {
				t.Fatalf("step %d clause %d: satCount %d, want %d", step, ci, ix.satCount[ci], n)
			}
		}
	}
}

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver(nil, Params{}); err == nil {
		t.Error("nil formula accepted")
	}
	if _, err := NewSolver(&Formula{NumVars: 1, Clauses: []Clause{{}}}, Params{}); err == nil {
		t.Error("invalid formula accepted")
	}
}
