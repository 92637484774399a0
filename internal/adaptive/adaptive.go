// Package adaptive is a Go implementation of the Adaptive Search
// metaheuristic of Codognet & Diaz, the Las Vegas algorithm the paper
// benchmarks (§4.2). The solver:
//
//  1. starts from a uniformly random permutation;
//  2. projects constraint errors onto variables and picks the worst
//     non-tabu variable (the "culprit");
//  3. moves it with the min-conflict heuristic (the swap minimizing
//     the next configuration's cost);
//  4. marks variables whose best move does not improve as tabu for a
//     fixed tenure, and performs a partial random reset when too many
//     variables are frozen;
//  5. optionally restarts from scratch after an iteration budget.
//
// Runtime (in iterations) is a random variable — exactly the Y of the
// paper's probabilistic model; Result carries the iteration count so
// campaigns can build its empirical distribution.
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lasvegas/internal/csp"
	"lasvegas/internal/xrand"
)

// ErrInterrupted is returned (inside Result.Err) when the context is
// cancelled before a solution is found — the multi-walk engine kills
// losing walkers this way.
var ErrInterrupted = errors.New("adaptive: interrupted")

// Params tunes the metaheuristic. The zero value is unusable; start
// from DefaultParams.
type Params struct {
	// TabuTenure is the number of iterations a marked variable stays
	// frozen (the short-term memory of §4.2).
	TabuTenure int
	// ResetLimit is the number of simultaneously tabu variables that
	// triggers a partial reset.
	ResetLimit int
	// ResetFraction is the fraction of variables re-randomized by a
	// reset.
	ResetFraction float64
	// MaxIterationsPerRestart caps one descent; 0 disables restarts.
	MaxIterationsPerRestart int64
	// MaxIterations caps the total effort; 0 means unbounded (pure Las
	// Vegas behaviour, the paper's setting).
	MaxIterations int64
	// ProbSelectLocalMin is the probability, on a local minimum, of
	// accepting the non-improving best move instead of marking the
	// culprit tabu (plateau escape).
	ProbSelectLocalMin float64
	// CheckEvery is the iteration period of context-cancellation
	// checks when running under RunContext.
	CheckEvery int64
}

// DefaultParams returns the tuning used by the reference
// implementation's benchmarks, scaled to problem size n.
func DefaultParams(n int) Params {
	if n < 1 {
		n = 1
	}
	return Params{
		TabuTenure:              5 + n/10,
		ResetLimit:              1 + n/5,
		ResetFraction:           0.25,
		MaxIterationsPerRestart: 0,
		MaxIterations:           0,
		ProbSelectLocalMin:      0.05,
		CheckEvery:              1024,
	}
}

// Stats counts solver events; all fields accumulate across restarts.
type Stats struct {
	Iterations  int64 // variable-selection steps (the paper's runtime unit)
	Swaps       int64
	LocalMinima int64
	Resets      int64
	Restarts    int64
}

// Result is the outcome of one Las Vegas run.
type Result struct {
	Solution []int // best configuration found (a solution iff Solved)
	Cost     int   // its cost
	Solved   bool
	Stats    Stats
	Err      error // ErrInterrupted or budget exhaustion; nil when Solved
}

// Solver runs Adaptive Search on one problem. A Solver is not safe
// for concurrent use; the multi-walk engine creates one per walker.
type Solver struct {
	p      csp.Problem
	inc    csp.Incremental // nil when the problem is not incremental
	vc     csp.VariableCost
	params Params

	sol  []int
	cost int
	tabu []int64 // iteration until which variable i is frozen
	// tabuUsed counts the marks that froze a thawed variable since the
	// last reset or restart. Expired marks are never subtracted, so a
	// reset fires after ResetLimit such marks even if some have thawed.
	tabuUsed int
	errs     []int // scratch: per-variable projected error
	swaps    []int // scratch: cost after swapping the culprit with each position
}

// New creates a solver; params zero-values fall back to
// DefaultParams(p.Size()) field by field.
func New(p csp.Problem, params Params) (*Solver, error) {
	if p == nil {
		return nil, errors.New("adaptive: nil problem")
	}
	n := p.Size()
	if n < 2 {
		return nil, fmt.Errorf("adaptive: problem size %d too small", n)
	}
	def := DefaultParams(n)
	if params.TabuTenure <= 0 {
		params.TabuTenure = def.TabuTenure
	}
	if params.ResetLimit <= 0 {
		params.ResetLimit = def.ResetLimit
	}
	if params.ResetFraction <= 0 || params.ResetFraction > 1 {
		params.ResetFraction = def.ResetFraction
	}
	if params.ProbSelectLocalMin < 0 || params.ProbSelectLocalMin >= 1 {
		params.ProbSelectLocalMin = def.ProbSelectLocalMin
	}
	if params.CheckEvery <= 0 {
		params.CheckEvery = def.CheckEvery
	}
	s := &Solver{p: p, params: params}
	s.inc, _ = p.(csp.Incremental)
	s.vc, _ = p.(csp.VariableCost)
	s.sol = make([]int, n)
	s.tabu = make([]int64, n)
	s.errs = make([]int, n)
	s.swaps = make([]int, n)
	return s, nil
}

// Params returns the effective tuning.
func (s *Solver) Params() Params { return s.params }

// Run solves with an isolated random stream until a solution is found
// or a budget expires.
func (s *Solver) Run(r *xrand.Rand) Result {
	return s.RunContext(context.Background(), r)
}

// RunContext is Run with cooperative cancellation: the context is
// polled every Params.CheckEvery iterations, so losing multi-walk
// walkers stop promptly.
func (s *Solver) RunContext(ctx context.Context, r *xrand.Rand) Result {
	var st Stats
	n := s.p.Size()
	best := make([]int, n)
	bestCost := math.MaxInt

	s.restart(r)
	var sinceRestart int64
	for {
		if s.cost == 0 {
			copy(best, s.sol)
			return Result{Solution: best, Cost: 0, Solved: true, Stats: st}
		}
		if s.cost < bestCost {
			bestCost = s.cost
			copy(best, s.sol)
		}
		if s.params.MaxIterations > 0 && st.Iterations >= s.params.MaxIterations {
			return Result{Solution: best, Cost: bestCost, Stats: st,
				Err: fmt.Errorf("adaptive: iteration budget %d exhausted", s.params.MaxIterations)}
		}
		if st.Iterations%s.params.CheckEvery == 0 && ctx.Err() != nil {
			return Result{Solution: best, Cost: bestCost, Stats: st, Err: ErrInterrupted}
		}
		if s.params.MaxIterationsPerRestart > 0 && sinceRestart >= s.params.MaxIterationsPerRestart {
			s.restart(r)
			st.Restarts++
			sinceRestart = 0
			continue
		}

		st.Iterations++
		sinceRestart++

		culprit := s.selectWorstVariable(r, st.Iterations)
		if culprit < 0 {
			// Every variable is tabu: force a reset.
			s.reset(r, &st)
			continue
		}
		j, swapCost := s.bestSwap(r, culprit)
		switch {
		case swapCost < s.cost:
			s.doSwap(culprit, j, swapCost, &st)
		case swapCost == s.cost && j >= 0 && r.Float64() < 0.5:
			// Plateau: take the sideways move half the time.
			s.doSwap(culprit, j, swapCost, &st)
		default:
			// Local minimum on this variable.
			st.LocalMinima++
			if j >= 0 && r.Float64() < s.params.ProbSelectLocalMin {
				s.doSwap(culprit, j, swapCost, &st)
				continue
			}
			s.markTabu(culprit, st.Iterations)
			if s.tabuUsed >= s.params.ResetLimit {
				s.reset(r, &st)
			}
		}
	}
}

// restart draws a fresh uniform permutation and rebuilds state. The
// shuffle runs in place on s.sol (identical stream consumption to
// xrand.Perm, without its allocation).
func (s *Solver) restart(r *xrand.Rand) {
	for i := range s.sol {
		s.sol[i] = i
	}
	r.Shuffle(s.sol)
	s.initState()
	for i := range s.tabu {
		s.tabu[i] = 0
	}
	s.tabuUsed = 0
}

func (s *Solver) initState() {
	if s.inc != nil {
		s.cost = s.inc.InitState(s.sol)
		return
	}
	s.cost = s.p.Cost(s.sol)
}

// selectWorstVariable returns the non-tabu variable with maximal
// projected error (ties broken uniformly), or -1 when all variables
// are frozen. Variables with zero error are skipped — moving them
// cannot repair anything.
func (s *Solver) selectWorstVariable(r *xrand.Rand, iter int64) int {
	s.projectErrors(iter)
	worst, count := -1, 0
	worstErr := 0
	for i, e := range s.errs {
		if s.tabu[i] > iter {
			continue
		}
		switch {
		case e > worstErr:
			worstErr = e
			worst = i
			count = 1
		case e == worstErr && e > 0:
			count++
			if r.Intn(count) == 0 {
				worst = i
			}
		}
	}
	return worst
}

// projectErrors fills s.errs with the error projected on each variable,
// preferring the problem's own projection. The probing fallback fills
// only the non-tabu entries, the ones selectWorstVariable reads.
func (s *Solver) projectErrors(iter int64) {
	if s.vc != nil {
		s.vc.VariableCosts(s.sol, s.errs)
		return
	}
	// Probing fallback: improvement potential of the best swap at i.
	for i := range s.errs {
		if s.tabu[i] > iter {
			continue
		}
		s.swapCosts(i)
		best := s.cost
		for k, c := range s.swaps {
			if k != i && c < best {
				best = c
			}
		}
		s.errs[i] = s.cost - best
	}
}

// swapCosts fills s.swaps with the cost after swapping i with each
// position (s.cost at i itself).
func (s *Solver) swapCosts(i int) {
	if s.inc != nil {
		s.inc.SwapCosts(s.sol, s.cost, i, s.swaps)
		return
	}
	for k := range s.swaps {
		if k == i {
			s.swaps[k] = s.cost
			continue
		}
		s.swaps[k] = csp.CostIfSwap(s.p, s.sol, s.cost, i, k)
	}
}

// bestSwap returns the min-conflict partner for variable i: the
// position j whose swap yields the smallest next cost (ties broken
// uniformly). j = -1 when n < 2 (cannot happen after New validates).
func (s *Solver) bestSwap(r *xrand.Rand, i int) (j, cost int) {
	s.swapCosts(i)
	j = -1
	best := math.MaxInt
	count := 0
	for k, c := range s.swaps {
		if k == i {
			continue
		}
		switch {
		case c < best:
			best = c
			j = k
			count = 1
		case c == best:
			count++
			if r.Intn(count) == 0 {
				j = k
			}
		}
	}
	return j, best
}

func (s *Solver) doSwap(i, j, newCost int, st *Stats) {
	s.sol[i], s.sol[j] = s.sol[j], s.sol[i]
	if s.inc != nil {
		s.inc.ExecutedSwap(s.sol, i, j)
	}
	s.cost = newCost
	st.Swaps++
}

func (s *Solver) markTabu(i int, iter int64) {
	if s.tabu[i] <= iter {
		s.tabuUsed++
	}
	s.tabu[i] = iter + int64(s.params.TabuTenure)
}

// reset re-randomizes a fraction of the variables (random transposi-
// tions), clears the tabu list and recomputes incremental state —
// §4.2's escape from stagnation.
func (s *Solver) reset(r *xrand.Rand, st *Stats) {
	n := s.p.Size()
	k := int(float64(n) * s.params.ResetFraction)
	if k < 2 {
		k = 2
	}
	for m := 0; m < k; m++ {
		i, j := r.Intn(n), r.Intn(n)
		if i != j {
			s.sol[i], s.sol[j] = s.sol[j], s.sol[i]
		}
	}
	s.initState()
	for i := range s.tabu {
		s.tabu[i] = 0
	}
	s.tabuUsed = 0
	st.Resets++
}
