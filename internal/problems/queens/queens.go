// Package queens implements the N-Queens problem as a permutation
// CSP: sol[i] is the row of the queen in column i, so rows and
// columns are satisfied by construction and only diagonal conflicts
// cost. It is not one of the paper's three benchmarks, but it is the
// classic cheap Las Vegas workload used by the examples and tests —
// its runtime distribution is near-exponential, so it exercises the
// whole fit→predict pipeline in milliseconds.
//
// Cost model: Σ over both diagonal directions of max(0, count-1); a
// swap touches at most eight diagonal counters, so CostIfSwap is O(1)
// and SwapCosts and VariableCosts fill a whole row in O(N).
package queens

import (
	"fmt"

	"lasvegas/internal/csp"
)

// Problem is an N-Queens instance. Stateful; one solver per instance.
type Problem struct {
	n    int
	main []int // count of queens on each i+sol[i] diagonal
	anti []int // count of queens on each i-sol[i]+n-1 diagonal
}

// New returns an instance with n queens (n ≥ 4; smaller boards have
// no solutions beyond the trivial n=1).
func New(n int) (*Problem, error) {
	if n < 4 {
		return nil, fmt.Errorf("queens: size %d too small", n)
	}
	return &Problem{
		n:    n,
		main: make([]int, 2*n-1),
		anti: make([]int, 2*n-1),
	}, nil
}

// Size implements csp.Problem.
func (p *Problem) Size() int { return p.n }

// Name implements csp.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("queens-%d", p.n) }

// Cost implements csp.Problem by full recomputation.
func (p *Problem) Cost(sol []int) int {
	fresh := Problem{n: p.n, main: make([]int, 2*p.n-1), anti: make([]int, 2*p.n-1)}
	return fresh.InitState(sol)
}

// InitState implements csp.Incremental.
func (p *Problem) InitState(sol []int) int {
	clear(p.main)
	clear(p.anti)
	for i, r := range sol {
		p.main[i+r]++
		p.anti[i-r+p.n-1]++
	}
	cost := 0
	for k := range p.main {
		cost += excess(p.main[k]) + excess(p.anti[k])
	}
	return cost
}

// CostIfSwap implements csp.Incremental.
func (p *Problem) CostIfSwap(sol []int, cost, i, j int) int {
	n := p.n
	adjust := func(arr []int, k, delta int) int {
		c := arr[k]
		arr[k] = c + delta
		return excess(c+delta) - excess(c)
	}
	// Remove both queens, add them back swapped, then roll back.
	keys := [8]struct {
		arr   []int
		k     int
		delta int
	}{
		{p.main, i + sol[i], -1},
		{p.anti, i - sol[i] + n - 1, -1},
		{p.main, j + sol[j], -1},
		{p.anti, j - sol[j] + n - 1, -1},
		{p.main, i + sol[j], +1},
		{p.anti, i - sol[j] + n - 1, +1},
		{p.main, j + sol[i], +1},
		{p.anti, j - sol[i] + n - 1, +1},
	}
	for _, c := range keys {
		cost += adjust(c.arr, c.k, c.delta)
	}
	for _, c := range keys {
		c.arr[c.k] -= c.delta
	}
	return cost
}

// SwapCosts implements csp.Incremental by probing each partner.
func (p *Problem) SwapCosts(sol []int, cost, i int, out []int) {
	for k := range out {
		if k == i {
			out[k] = cost
			continue
		}
		out[k] = p.CostIfSwap(sol, cost, i, k)
	}
}

// ExecutedSwap implements csp.Incremental (sol already swapped).
func (p *Problem) ExecutedSwap(sol []int, i, j int) {
	n := p.n
	// Pre-swap rows: sol[i] and sol[j] are already exchanged.
	oldRi, oldRj := sol[j], sol[i]
	p.main[i+oldRi]--
	p.anti[i-oldRi+n-1]--
	p.main[j+oldRj]--
	p.anti[j-oldRj+n-1]--
	p.main[i+sol[i]]++
	p.anti[i-sol[i]+n-1]++
	p.main[j+sol[j]]++
	p.anti[j-sol[j]+n-1]++
}

// CostOnVariable implements csp.VariableCost.
func (p *Problem) CostOnVariable(sol []int, i int) int {
	n := p.n
	e := 0
	if c := p.main[i+sol[i]]; c > 1 {
		e += c - 1
	}
	if c := p.anti[i-sol[i]+n-1]; c > 1 {
		e += c - 1
	}
	return e
}

// VariableCosts implements csp.VariableCost.
func (p *Problem) VariableCosts(sol []int, out []int) {
	n := p.n
	for i, r := range sol {
		out[i] = excess(p.main[i+r]) + excess(p.anti[i-r+n-1])
	}
}

// IsSolution reports whether sol places n non-attacking queens.
func (p *Problem) IsSolution(sol []int) bool {
	return csp.Validate(p, sol) && p.Cost(sol) == 0
}

func excess(c int) int {
	if c > 1 {
		return c - 1
	}
	return 0
}
