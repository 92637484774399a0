// Package csp defines the permutation-CSP abstraction consumed by the
// Adaptive Search solver (internal/adaptive), mirroring the interface
// of the reference C library by Codognet & Diaz that the paper uses:
// a global cost function, an error projection onto variables, and
// incremental swap deltas.
//
// A configuration is a permutation of {0..N-1} held by the solver;
// problems keep whatever incremental state they need and are notified
// of executed swaps. Every benchmark of the paper (ALL-INTERVAL,
// MAGIC-SQUARE, COSTAS ARRAY) is naturally a permutation problem.
//
// The solver talks to an incremental problem in batches, one call per
// decision rather than one per candidate:
//
//	cost := InitState(sol)           // each start, restart and reset
//	loop:
//	    VariableCosts(sol, errs)     // pick the culprit i
//	    SwapCosts(sol, cost, i, row) // pick its min-conflict partner j
//	    ExecutedSwap(sol, i, j)      // after sol[i], sol[j] are exchanged
//
// Without the incremental layer the solver prices each swap through
// Cost (swap, recompute, swap back); without VariableCosts it projects
// a variable's error by probing that variable's swaps.
package csp

// Problem is a combinatorial problem whose configurations are
// permutations of {0..N-1}. Cost 0 means the configuration satisfies
// every constraint. Implementations must treat sol as read-only.
type Problem interface {
	// Size returns the number of variables N.
	Size() int
	// Cost returns the global error of sol from scratch (0 = solved).
	Cost(sol []int) int
	// Name identifies the problem instance, e.g. "magic-square-10".
	Name() string
}

// Incremental is implemented by problems that maintain internal state
// allowing swap deltas cheaper than a full Cost recomputation. The
// solver guarantees the call sequence: InitState(sol) once per
// (re)start, then any number of CostIfSwap and SwapCosts probes
// against the current sol, and ExecutedSwap immediately after it swaps
// two positions.
type Incremental interface {
	Problem
	// InitState (re)builds incremental structures for configuration sol
	// and returns its cost, equal to Cost(sol).
	InitState(sol []int) int
	// CostIfSwap returns the cost sol would have after swapping
	// positions i and j, given its current cost.
	CostIfSwap(sol []int, cost, i, j int) int
	// SwapCosts fills out[k], for every k ≠ i, with CostIfSwap(sol,
	// cost, i, k), and out[i] with cost. len(out) must be Size().
	SwapCosts(sol []int, cost, i int, out []int)
	// ExecutedSwap informs the problem that positions i and j of sol
	// have just been exchanged (sol already reflects the swap).
	ExecutedSwap(sol []int, i, j int)
}

// VariableCost is implemented by problems that can project the global
// error onto individual variables (the "worst culprit" heuristic of
// Adaptive Search, §4.2 of the paper). Problems without it fall back
// to a probing projection: the best swap improvement available at each
// variable.
type VariableCost interface {
	// CostOnVariable returns the error attributed to position i in sol.
	CostOnVariable(sol []int, i int) int
	// VariableCosts fills out[i] with CostOnVariable(sol, i) for every
	// position i. len(out) must be Size().
	VariableCosts(sol []int, out []int)
}

// CostIfSwap probes p, using the incremental path when available and
// otherwise swapping, recomputing and swapping back.
func CostIfSwap(p Problem, sol []int, cost, i, j int) int {
	if inc, ok := p.(Incremental); ok {
		return inc.CostIfSwap(sol, cost, i, j)
	}
	sol[i], sol[j] = sol[j], sol[i]
	c := p.Cost(sol)
	sol[i], sol[j] = sol[j], sol[i]
	return c
}

// Validate reports whether sol is a permutation of {0..N-1} matching
// p.Size(); solver results are checked with it in tests.
func Validate(p Problem, sol []int) bool {
	if len(sol) != p.Size() {
		return false
	}
	seen := make([]bool, len(sol))
	for _, v := range sol {
		if v < 0 || v >= len(sol) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
