// Package costas implements the COSTAS ARRAY problem (§5.3 of the
// paper): an N×N grid with one mark per row and column such that the
// N(N-1)/2 displacement vectors between marks are pairwise distinct.
// Viewing the marks as a permutation sol (column i holds a mark at
// row sol[i]), the condition is that for every row distance d, the
// differences sol[i+d] - sol[i] are pairwise distinct.
//
// Cost model: Σ_{d,v} max(0, count_d(v)-1) — the number of repeated
// difference vectors. A swap of columns i and j touches O(N) of the
// difference triangle, so CostIfSwap runs in O(N) versus O(N²) for a
// full recomputation; SwapCosts fills a row of N swaps in O(N²) and
// VariableCosts projects every column in one O(N²) pass.
package costas

import (
	"fmt"

	"lasvegas/internal/csp"
)

// Problem is a COSTAS ARRAY instance. Stateful; one solver per
// instance.
type Problem struct {
	n int
	// count[d-1][v+n-1] = occurrences of difference v at row distance d
	count [][]int
}

// New returns an instance of order n (n ≥ 3).
func New(n int) (*Problem, error) {
	if n < 3 {
		return nil, fmt.Errorf("costas: order %d too small", n)
	}
	cnt := make([][]int, n-1)
	for d := range cnt {
		cnt[d] = make([]int, 2*n-1)
	}
	return &Problem{n: n, count: cnt}, nil
}

// Size implements csp.Problem.
func (p *Problem) Size() int { return p.n }

// Name implements csp.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("costas-%d", p.n) }

// Cost implements csp.Problem by recomputing the full difference
// triangle (O(N²)).
func (p *Problem) Cost(sol []int) int {
	fresh, _ := New(p.n) // cannot fail: p.n passed New when p was built
	return fresh.InitState(sol)
}

// InitState implements csp.Incremental.
func (p *Problem) InitState(sol []int) int {
	n := p.n
	cost := 0
	for d := 1; d < n; d++ {
		row := p.count[d-1]
		clear(row)
		for i := 0; i+d < n; i++ {
			v := sol[i+d] - sol[i] + n - 1
			row[v]++
			if row[v] > 1 {
				cost++
			}
		}
	}
	return cost
}

// affectedPairs returns the left endpoints of the difference pairs at
// row distance d that involve column i or column j, once each.
func (p *Problem) affectedPairs(i, j, d int) (lefts [4]int, m int) {
	last := p.n - 1 - d // largest left endpoint at distance d
	for _, c := range [4]int{i - d, i, j - d, j} {
		if c < 0 || c > last {
			continue
		}
		dup := false
		for _, have := range lefts[:m] {
			dup = dup || have == c
		}
		if !dup {
			lefts[m] = c
			m++
		}
	}
	return lefts, m
}

// swapped returns the value at column q after exchanging columns i, j.
func swapped(sol []int, i, j, q int) int {
	switch q {
	case i:
		return sol[j]
	case j:
		return sol[i]
	}
	return sol[q]
}

// CostIfSwap implements csp.Incremental: for every row distance,
// remove the affected differences, add their post-swap values, read
// the cost delta and roll back.
func (p *Problem) CostIfSwap(sol []int, cost, i, j int) int {
	n := p.n
	for d := 1; d < n; d++ {
		row := p.count[d-1]
		lefts, m := p.affectedPairs(i, j, d)
		var added [4]int
		for _, l := range lefts[:m] {
			v := sol[l+d] - sol[l] + n - 1
			row[v]--
			if row[v] >= 1 {
				cost--
			}
		}
		for q, l := range lefts[:m] {
			v := swapped(sol, i, j, l+d) - swapped(sol, i, j, l) + n - 1
			row[v]++
			if row[v] > 1 {
				cost++
			}
			added[q] = v
		}
		for q, l := range lefts[:m] {
			row[added[q]]--
			row[sol[l+d]-sol[l]+n-1]++
		}
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

// ExecutedSwap implements csp.Incremental (sol already swapped, so
// the pre-swap values are the swapped view of sol).
func (p *Problem) ExecutedSwap(sol []int, i, j int) {
	n := p.n
	for d := 1; d < n; d++ {
		row := p.count[d-1]
		lefts, m := p.affectedPairs(i, j, d)
		for _, l := range lefts[:m] {
			row[swapped(sol, i, j, l+d)-swapped(sol, i, j, l)+n-1]--
			row[sol[l+d]-sol[l]+n-1]++
		}
	}
}

// CostOnVariable implements csp.VariableCost: column i inherits one
// error for each duplicated difference vector it participates in.
func (p *Problem) CostOnVariable(sol []int, i int) int {
	n := p.n
	e := 0
	for d := 1; d < n; d++ {
		if i+d < n {
			if c := p.count[d-1][sol[i+d]-sol[i]+n-1]; c > 1 {
				e += c - 1
			}
		}
		if i-d >= 0 {
			if c := p.count[d-1][sol[i]-sol[i-d]+n-1]; c > 1 {
				e += c - 1
			}
		}
	}
	return e
}

// VariableCosts implements csp.VariableCost: each difference pair's
// excess is read once and credited to both of its columns.
func (p *Problem) VariableCosts(sol []int, out []int) {
	n := p.n
	for i := range out {
		out[i] = 0
	}
	for d := 1; d < n; d++ {
		row := p.count[d-1]
		for i := 0; i+d < n; i++ {
			if c := row[sol[i+d]-sol[i]+n-1]; c > 1 {
				out[i] += c - 1
				out[i+d] += c - 1
			}
		}
	}
}

// IsSolution reports whether sol is a Costas array.
func (p *Problem) IsSolution(sol []int) bool {
	return csp.Validate(p, sol) && p.Cost(sol) == 0
}
