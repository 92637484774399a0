// Package allinterval implements CSPLib prob007, the ALL-INTERVAL
// series problem (§5.1 of the paper): find a permutation
// (X₁..X_N) of {0..N-1} such that the absolute differences of
// consecutive elements are pairwise distinct (hence a permutation of
// {1..N-1}).
//
// Cost model: for each distance d, every occurrence beyond the first
// is one error; the total cost is Σ_d max(0, count(d)-1), which is 0
// exactly on solutions. A swap touches at most four consecutive-pair
// distances, so CostIfSwap runs in O(1); SwapCosts and VariableCosts
// fill a whole row in O(N).
package allinterval

import (
	"fmt"

	"lasvegas/internal/csp"
)

// Problem is an ALL-INTERVAL instance. Create with New; a Problem is
// stateful (distance counts) and must not be shared across solvers.
type Problem struct {
	n     int
	count []int // count[d] = occurrences of distance d in the series
}

// New returns an instance with n notes (n ≥ 3).
func New(n int) (*Problem, error) {
	if n < 3 {
		return nil, fmt.Errorf("allinterval: size %d too small", n)
	}
	return &Problem{n: n, count: make([]int, n)}, nil
}

// Size implements csp.Problem.
func (p *Problem) Size() int { return p.n }

// Name implements csp.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("all-interval-%d", p.n) }

// Cost implements csp.Problem by full recomputation (also used by
// tests to validate the incremental path).
func (p *Problem) Cost(sol []int) int {
	fresh := Problem{n: p.n, count: make([]int, p.n)}
	return fresh.InitState(sol)
}

// InitState implements csp.Incremental.
func (p *Problem) InitState(sol []int) int {
	clear(p.count)
	for i := 0; i+1 < p.n; i++ {
		p.count[abs(sol[i]-sol[i+1])]++
	}
	cost := 0
	for _, c := range p.count {
		cost += excess(c)
	}
	return cost
}

// pairsAround returns the consecutive-pair left indices affected by
// changing positions i and j, deduplicated, in buf.
func (p *Problem) pairsAround(i, j int, buf []int) []int {
	buf = buf[:0]
	add := func(q int) {
		if q < 0 || q+1 >= p.n {
			return
		}
		for _, have := range buf {
			if have == q {
				return
			}
		}
		buf = append(buf, q)
	}
	add(i - 1)
	add(i)
	add(j - 1)
	add(j)
	return buf
}

// CostIfSwap implements csp.Incremental.
func (p *Problem) CostIfSwap(sol []int, cost, i, j int) int {
	var pairBuf [4]int
	pairs := p.pairsAround(i, j, pairBuf[:])
	val := func(q int) int {
		switch q {
		case i:
			return sol[j]
		case j:
			return sol[i]
		}
		return sol[q]
	}
	// Apply removals and additions against the count array, tracking
	// the cost delta, then roll back.
	type change struct{ d, delta int }
	var log [8]change
	k := 0
	apply := func(d, delta int) {
		c := p.count[d]
		cost -= excess(c)
		p.count[d] = c + delta
		cost += excess(c + delta)
		log[k] = change{d, delta}
		k++
	}
	for _, q := range pairs {
		apply(abs(sol[q]-sol[q+1]), -1)
	}
	for _, q := range pairs {
		apply(abs(val(q)-val(q+1)), +1)
	}
	for k--; k >= 0; k-- {
		p.count[log[k].d] -= log[k].delta
	}
	return cost
}

// SwapCosts implements csp.Incremental. The distances of i's own pairs
// are taken out of the counts once; every k that shares no pair with i
// then only moves its own two distances and the four new ones. The
// neighbours of i share a pair with it and take the general path.
func (p *Problem) SwapCosts(sol []int, cost, i int, out []int) {
	n := p.n
	vi := sol[i]
	base := cost
	left, right := -1, -1 // i's pair distances, -1 at the ends
	if i > 0 {
		left = abs(sol[i-1] - vi)
		base += p.bump(left, -1)
	}
	if i+1 < n {
		right = abs(vi - sol[i+1])
		base += p.bump(right, -1)
	}
	for k := 0; k < n; k++ {
		if k >= i-1 && k <= i+1 {
			continue
		}
		vk := sol[k]
		c := base
		var add [4]int // the distances the swap creates
		a := 0
		if k > 0 {
			c += p.bump(abs(sol[k-1]-vk), -1)
			add[a] = abs(sol[k-1] - vi)
			a++
		}
		if k+1 < n {
			c += p.bump(abs(vk-sol[k+1]), -1)
			add[a] = abs(vi - sol[k+1])
			a++
		}
		if left >= 0 {
			add[a] = abs(sol[i-1] - vk)
			a++
		}
		if right >= 0 {
			add[a] = abs(vk - sol[i+1])
			a++
		}
		for _, d := range add[:a] {
			c += p.bump(d, +1)
		}
		out[k] = c
		for _, d := range add[:a] {
			p.count[d]--
		}
		if k > 0 {
			p.count[abs(sol[k-1]-vk)]++
		}
		if k+1 < n {
			p.count[abs(vk-sol[k+1])]++
		}
	}
	if left >= 0 {
		p.count[left]++
	}
	if right >= 0 {
		p.count[right]++
	}
	out[i] = cost
	if i > 0 {
		out[i-1] = p.CostIfSwap(sol, cost, i, i-1)
	}
	if i+1 < n {
		out[i+1] = p.CostIfSwap(sol, cost, i, i+1)
	}
}

// bump moves count[d] by delta and returns the resulting cost change.
func (p *Problem) bump(d, delta int) int {
	c := p.count[d]
	p.count[d] = c + delta
	return excess(c+delta) - excess(c)
}

// ExecutedSwap implements csp.Incremental; sol already contains the
// swap, so the pre-swap distances are recovered by re-exchanging i, j.
func (p *Problem) ExecutedSwap(sol []int, i, j int) {
	var pairBuf [4]int
	pairs := p.pairsAround(i, j, pairBuf[:])
	old := func(q int) int {
		switch q {
		case i:
			return sol[j]
		case j:
			return sol[i]
		}
		return sol[q]
	}
	for _, q := range pairs {
		p.count[abs(old(q)-old(q+1))]--
	}
	for _, q := range pairs {
		p.count[abs(sol[q]-sol[q+1])]++
	}
}

// CostOnVariable implements csp.VariableCost: a position inherits one
// error for each duplicated distance it participates in.
func (p *Problem) CostOnVariable(sol []int, i int) int {
	e := 0
	if i > 0 {
		if c := p.count[abs(sol[i-1]-sol[i])]; c > 1 {
			e += c - 1
		}
	}
	if i+1 < p.n {
		if c := p.count[abs(sol[i]-sol[i+1])]; c > 1 {
			e += c - 1
		}
	}
	return e
}

// VariableCosts implements csp.VariableCost: each pair's excess is read
// once and credited to both of its positions.
func (p *Problem) VariableCosts(sol []int, out []int) {
	prev := 0
	for i := 0; i+1 < p.n; i++ {
		e := excess(p.count[abs(sol[i]-sol[i+1])])
		out[i] = prev + e
		prev = e
	}
	out[p.n-1] = prev
}

// IsSolution reports whether sol is a valid ALL-INTERVAL series.
func (p *Problem) IsSolution(sol []int) bool {
	return csp.Validate(p, sol) && p.Cost(sol) == 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func excess(c int) int {
	if c > 1 {
		return c - 1
	}
	return 0
}
