// Package sat implements a WalkSAT-style stochastic local search for
// boolean satisfiability and a planted random k-SAT instance
// generator. The paper's conclusion names SAT solvers as the next Las
// Vegas family to which the prediction model should apply ("portfolio
// algorithms in the SAT community", §1; "further research will
// consider … SAT solvers", §8) — this package provides that workload:
// WalkSAT's runtime on satisfiable random 3-SAT near the phase
// transition is a heavy-tailed random variable, and the solver plugs
// directly into the multiwalk engine and the fit→predict pipeline.
package sat

import (
	"context"
	"errors"
	"fmt"

	"lasvegas/internal/xrand"
)

// Literal is a 1-based variable index, negative for negation (the
// DIMACS convention). Zero is invalid.
type Literal int

// Clause is a disjunction of literals.
type Clause []Literal

// Formula is a CNF formula over NumVars variables.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// Validate checks literal ranges and non-empty clauses.
func (f *Formula) Validate() error {
	if f.NumVars < 1 {
		return fmt.Errorf("sat: %d variables", f.NumVars)
	}
	for i, c := range f.Clauses {
		if len(c) == 0 {
			return fmt.Errorf("sat: clause %d is empty", i)
		}
		for _, lit := range c {
			v := lit
			if v < 0 {
				v = -v
			}
			if v == 0 || int(v) > f.NumVars {
				return fmt.Errorf("sat: clause %d has literal %d out of range", i, lit)
			}
		}
	}
	return nil
}

// Eval reports whether assignment satisfies the formula; assignment
// is indexed 1..NumVars (index 0 unused).
func (f *Formula) Eval(assignment []bool) bool {
	return f.CountUnsat(assignment) == 0
}

// CountUnsat returns the number of falsified clauses.
func (f *Formula) CountUnsat(assignment []bool) int {
	unsat := 0
	for _, c := range f.Clauses {
		if !clauseSat(c, assignment) {
			unsat++
		}
	}
	return unsat
}

func clauseSat(c Clause, assignment []bool) bool {
	for _, lit := range c {
		if lit > 0 && assignment[lit] {
			return true
		}
		if lit < 0 && !assignment[-lit] {
			return true
		}
	}
	return false
}

// RandomPlantedKSAT draws a random k-SAT formula that is satisfied by
// a hidden planted assignment, guaranteeing satisfiability (so every
// WalkSAT run terminates — the Las Vegas property the model needs).
func RandomPlantedKSAT(n, m, k int, r *xrand.Rand) (*Formula, []bool, error) {
	if n < k || k < 1 {
		return nil, nil, fmt.Errorf("sat: n=%d k=%d", n, k)
	}
	if m < 1 {
		return nil, nil, fmt.Errorf("sat: m=%d clauses", m)
	}
	planted := make([]bool, n+1)
	for v := 1; v <= n; v++ {
		planted[v] = r.Float64() < 0.5
	}
	f := &Formula{NumVars: n, Clauses: make([]Clause, m)}
	for i := range f.Clauses {
		f.Clauses[i] = randomClause(n, k, r, planted)
	}
	return f, planted, nil
}

// randomClause draws k distinct variables with uniform signs and
// redraws the clause until the planted assignment satisfies it
// (rejection keeps the distribution close to
// uniform-conditioned-on-satisfiable). Distinctness is enforced by
// scanning the clause under construction — k is tiny (3 for the phase
// transition, ≤5 in practice), so the linear scan beats any set and
// the only allocation left is the clause itself, which is retained.
func randomClause(n, k int, r *xrand.Rand, planted []bool) Clause {
	c := make(Clause, 0, k)
	for {
		c = c[:0]
	draw:
		for len(c) < k {
			v := 1 + r.Intn(n)
			for _, lit := range c {
				if lit == Literal(v) || lit == Literal(-v) {
					continue draw
				}
			}
			if r.Float64() < 0.5 {
				c = append(c, Literal(-v))
			} else {
				c = append(c, Literal(v))
			}
		}
		if clauseSat(c, planted) {
			return c
		}
	}
}

// Params tunes WalkSAT.
type Params struct {
	// Noise is the probability of a random (rather than greedy) flip
	// inside an unsatisfied clause; 0.5 is the classic 3-SAT setting.
	Noise float64
	// MaxFlips caps one run (0 = unbounded — Las Vegas mode).
	MaxFlips int64
	// CheckEvery is the cancellation polling period.
	CheckEvery int64
}

func (p Params) withDefaults() Params {
	if p.Noise <= 0 || p.Noise >= 1 {
		p.Noise = 0.5
	}
	if p.CheckEvery <= 0 {
		p.CheckEvery = 4096
	}
	return p
}

// Result reports one WalkSAT run. Flips is the runtime measure (the
// analogue of Adaptive Search iterations).
type Result struct {
	Assignment []bool
	Solved     bool
	Flips      int64
	Err        error
}

// ErrInterrupted mirrors adaptive.ErrInterrupted for cancelled runs.
var ErrInterrupted = errors.New("sat: interrupted")

// occurrence index: for each variable, the clauses containing it.
type index struct {
	f        *Formula
	occ      [][]int // variable → clause indices
	satCount []int   // clause → number of satisfying literals
	unsat    []int   // list of unsatisfied clause indices
	where    []int   // clause → position in unsat (-1 when satisfied)
}

func buildIndex(f *Formula) *index {
	ix := &index{
		f:        f,
		occ:      make([][]int, f.NumVars+1),
		satCount: make([]int, len(f.Clauses)),
		where:    make([]int, len(f.Clauses)),
	}
	for ci, c := range f.Clauses {
		for _, lit := range c {
			v := int(lit)
			if v < 0 {
				v = -v
			}
			ix.occ[v] = append(ix.occ[v], ci)
		}
	}
	return ix
}

func (ix *index) reset(assignment []bool) {
	ix.unsat = ix.unsat[:0]
	for ci, c := range ix.f.Clauses {
		n := 0
		for _, lit := range c {
			if litSat(lit, assignment) {
				n++
			}
		}
		ix.satCount[ci] = n
		if n == 0 {
			ix.where[ci] = len(ix.unsat)
			ix.unsat = append(ix.unsat, ci)
		} else {
			ix.where[ci] = -1
		}
	}
}

func litSat(lit Literal, assignment []bool) bool {
	if lit > 0 {
		return assignment[lit]
	}
	return !assignment[-lit]
}

// flip updates the incremental structures for flipping variable v.
func (ix *index) flip(v int, assignment []bool) {
	assignment[v] = !assignment[v]
	for _, ci := range ix.occ[v] {
		c := ix.f.Clauses[ci]
		var delta int
		for _, lit := range c {
			lv := int(lit)
			if lv < 0 {
				lv = -lv
			}
			if lv != v {
				continue
			}
			if litSat(lit, assignment) {
				delta++
			} else {
				delta--
			}
		}
		before := ix.satCount[ci]
		after := before + delta
		ix.satCount[ci] = after
		switch {
		case before == 0 && after > 0:
			ix.removeUnsat(ci)
		case before > 0 && after == 0:
			ix.where[ci] = len(ix.unsat)
			ix.unsat = append(ix.unsat, ci)
		}
	}
}

func (ix *index) removeUnsat(ci int) {
	pos := ix.where[ci]
	last := len(ix.unsat) - 1
	moved := ix.unsat[last]
	ix.unsat[pos] = moved
	ix.where[moved] = pos
	ix.unsat = ix.unsat[:last]
	ix.where[ci] = -1
}

// breakCount returns the number of clauses that would become
// unsatisfied by flipping v.
func (ix *index) breakCount(v int, assignment []bool) int {
	b := 0
	for _, ci := range ix.occ[v] {
		if ix.satCount[ci] != 1 {
			continue
		}
		// The clause is critically satisfied; it breaks iff its single
		// satisfying literal is on v.
		for _, lit := range ix.f.Clauses[ci] {
			lv := int(lit)
			if lv < 0 {
				lv = -lv
			}
			if lv == v && litSat(lit, assignment) {
				b++
				break
			}
		}
	}
	return b
}

// Solver runs WalkSAT on one formula. Not safe for concurrent use;
// multiwalk walkers each build their own.
type Solver struct {
	f      *Formula
	params Params
	ix     *index
	assign []bool // scratch assignment, reused across runs
}

// NewSolver validates the formula and prepares occurrence indexes.
func NewSolver(f *Formula, params Params) (*Solver, error) {
	if f == nil {
		return nil, errors.New("sat: nil formula")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &Solver{
		f:      f,
		params: params.withDefaults(),
		ix:     buildIndex(f),
		assign: make([]bool, f.NumVars+1),
	}, nil
}

// Run executes WalkSAT until a model is found or the flip budget is
// exhausted.
func (s *Solver) Run(r *xrand.Rand) Result { return s.RunContext(context.Background(), r) }

// RunContext is Run with cooperative cancellation.
func (s *Solver) RunContext(ctx context.Context, r *xrand.Rand) Result {
	// Reuse the solver's scratch assignment across runs; the flip loop
	// is then allocation-free and only a successful run copies out.
	assignment := s.assign
	for v := 1; v <= s.f.NumVars; v++ {
		assignment[v] = r.Float64() < 0.5
	}
	s.ix.reset(assignment)
	var flips int64
	for len(s.ix.unsat) > 0 {
		if s.params.MaxFlips > 0 && flips >= s.params.MaxFlips {
			return Result{Solved: false, Flips: flips,
				Err: fmt.Errorf("sat: flip budget %d exhausted", s.params.MaxFlips)}
		}
		if flips%s.params.CheckEvery == 0 && ctx.Err() != nil {
			return Result{Solved: false, Flips: flips, Err: ErrInterrupted}
		}
		flips++
		// Pick a random unsatisfied clause.
		c := s.f.Clauses[s.ix.unsat[r.Intn(len(s.ix.unsat))]]
		var v int
		if r.Float64() < s.params.Noise {
			// Noise step: random literal of the clause.
			lit := c[r.Intn(len(c))]
			if lit < 0 {
				v = int(-lit)
			} else {
				v = int(lit)
			}
		} else {
			// Greedy step: literal with minimal break count (free moves
			// taken immediately).
			best, bestBreak := 0, int(^uint(0)>>1)
			count := 0
			for _, lit := range c {
				lv := int(lit)
				if lv < 0 {
					lv = -lv
				}
				b := s.ix.breakCount(lv, assignment)
				switch {
				case b < bestBreak:
					best, bestBreak = lv, b
					count = 1
				case b == bestBreak:
					count++
					if r.Intn(count) == 0 {
						best = lv
					}
				}
			}
			v = best
		}
		s.ix.flip(v, assignment)
	}
	model := make([]bool, len(assignment))
	copy(model, assignment)
	return Result{Assignment: model, Solved: true, Flips: flips}
}
