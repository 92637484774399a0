// Package magicsquare implements CSPLib prob019, the MAGIC-SQUARE
// problem (§5.2 of the paper): place {1..N²} on an N×N board so that
// every row, column and both main diagonals sum to the magic constant
// M = N(N²+1)/2.
//
// A configuration is a permutation of {0..N²-1}; cell p holds value
// sol[p]+1 at row p/N, column p%N. The cost is the L1 deviation of
// all 2N+2 line sums from M, and a swap touches at most two rows, two
// columns and the two diagonals, so CostIfSwap runs in O(1); SwapCosts
// and VariableCosts fill a whole row of N² entries in O(N²).
package magicsquare

import (
	"fmt"

	"lasvegas/internal/csp"
)

// Problem is a MAGIC-SQUARE instance of side N. Stateful; one solver
// per instance.
type Problem struct {
	n     int // side
	magic int // N(N²+1)/2
	row   []int
	col   []int
	diag  int // main diagonal sum
	anti  int // anti-diagonal sum
}

// New returns an N×N instance (N ≥ 3; N = 2 has no magic square).
func New(n int) (*Problem, error) {
	if n < 3 {
		return nil, fmt.Errorf("magicsquare: side %d too small", n)
	}
	return &Problem{
		n:     n,
		magic: n * (n*n + 1) / 2,
		row:   make([]int, n),
		col:   make([]int, n),
	}, nil
}

// Size implements csp.Problem: N² variables.
func (p *Problem) Size() int { return p.n * p.n }

// Name implements csp.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("magic-square-%d", p.n) }

// Cost implements csp.Problem by full recomputation.
func (p *Problem) Cost(sol []int) int {
	fresh := Problem{n: p.n, magic: p.magic, row: make([]int, p.n), col: make([]int, p.n)}
	return fresh.InitState(sol)
}

// InitState implements csp.Incremental.
func (p *Problem) InitState(sol []int) int {
	n := p.n
	clear(p.row)
	clear(p.col)
	p.diag, p.anti = 0, 0
	for pos, v := range sol {
		r, c := pos/n, pos%n
		p.row[r] += v + 1
		p.col[c] += v + 1
		if r == c {
			p.diag += v + 1
		}
		if r+c == n-1 {
			p.anti += v + 1
		}
	}
	cost := abs(p.diag-p.magic) + abs(p.anti-p.magic)
	for i := 0; i < n; i++ {
		cost += abs(p.row[i]-p.magic) + abs(p.col[i]-p.magic)
	}
	return cost
}

// lineDelta returns the cost change of one line sum moving by delta.
func (p *Problem) lineDelta(sum, delta int) int {
	return abs(sum+delta-p.magic) - abs(sum-p.magic)
}

// CostIfSwap implements csp.Incremental.
func (p *Problem) CostIfSwap(sol []int, cost, i, j int) int {
	n := p.n
	ri, ci := i/n, i%n
	rj, cj := j/n, j%n
	di := sol[j] - sol[i] // value change at position i
	if di == 0 {
		return cost
	}
	if ri != rj {
		cost += p.lineDelta(p.row[ri], di) + p.lineDelta(p.row[rj], -di)
	}
	if ci != cj {
		cost += p.lineDelta(p.col[ci], di) + p.lineDelta(p.col[cj], -di)
	}
	dd := 0
	if ri == ci {
		dd += di
	}
	if rj == cj {
		dd -= di
	}
	if dd != 0 {
		cost += p.lineDelta(p.diag, dd)
	}
	da := 0
	if ri+ci == n-1 {
		da += di
	}
	if rj+cj == n-1 {
		da -= di
	}
	if da != 0 {
		cost += p.lineDelta(p.anti, da)
	}
	return cost
}

// SwapCosts implements csp.Incremental. The deviations of the lines
// through i are read once; each k then adds the deviation changes of
// the lines it does not share with i, exactly as CostIfSwap does.
func (p *Problem) SwapCosts(sol []int, cost, i int, out []int) {
	n, m := p.n, p.magic
	ri, ci := i/n, i%n
	vi := sol[i]
	rowI, colI := p.row[ri]-m, p.col[ci]-m
	absRowI, absColI := abs(rowI), abs(colI)
	diag, anti := p.diag-m, p.anti-m
	absDiag, absAnti := abs(diag), abs(anti)
	iDiag, iAnti := ri == ci, ri+ci == n-1
	k := 0
	for rk := 0; rk < n; rk++ {
		rowK := p.row[rk] - m
		absRowK := abs(rowK)
		for ck := 0; ck < n; ck, k = ck+1, k+1 {
			di := sol[k] - vi // value change at position i
			c := cost
			if rk != ri {
				c += abs(rowI+di) - absRowI + abs(rowK-di) - absRowK
			}
			if ck != ci {
				colK := p.col[ck] - m
				c += abs(colI+di) - absColI + abs(colK-di) - abs(colK)
			}
			dd := 0
			if iDiag {
				dd += di
			}
			if rk == ck {
				dd -= di
			}
			if dd != 0 {
				c += abs(diag+dd) - absDiag
			}
			da := 0
			if iAnti {
				da += di
			}
			if rk+ck == n-1 {
				da -= di
			}
			if da != 0 {
				c += abs(anti+da) - absAnti
			}
			out[k] = c
		}
	}
	out[i] = cost
}

// ExecutedSwap implements csp.Incremental (sol already swapped).
func (p *Problem) ExecutedSwap(sol []int, i, j int) {
	n := p.n
	ri, ci := i/n, i%n
	rj, cj := j/n, j%n
	di := sol[i] - sol[j] // sol[i] now holds the value that was at j
	p.row[ri] += di
	p.row[rj] -= di
	p.col[ci] += di
	p.col[cj] -= di
	if ri == ci {
		p.diag += di
	}
	if rj == cj {
		p.diag -= di
	}
	if ri+ci == n-1 {
		p.anti += di
	}
	if rj+cj == n-1 {
		p.anti -= di
	}
}

// CostOnVariable implements csp.VariableCost: the deviation of every
// line through the cell.
func (p *Problem) CostOnVariable(sol []int, i int) int {
	n := p.n
	r, c := i/n, i%n
	e := abs(p.row[r]-p.magic) + abs(p.col[c]-p.magic)
	if r == c {
		e += abs(p.diag - p.magic)
	}
	if r+c == n-1 {
		e += abs(p.anti - p.magic)
	}
	return e
}

// VariableCosts implements csp.VariableCost.
func (p *Problem) VariableCosts(sol []int, out []int) {
	n, m := p.n, p.magic
	diag, anti := abs(p.diag-m), abs(p.anti-m)
	k := 0
	for r := 0; r < n; r++ {
		row := abs(p.row[r] - m)
		for c := 0; c < n; c, k = c+1, k+1 {
			e := row + abs(p.col[c]-m)
			if r == c {
				e += diag
			}
			if r+c == n-1 {
				e += anti
			}
			out[k] = e
		}
	}
}

// IsSolution reports whether sol is a valid magic square.
func (p *Problem) IsSolution(sol []int) bool {
	return csp.Validate(p, sol) && p.Cost(sol) == 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
