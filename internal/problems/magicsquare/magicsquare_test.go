package magicsquare

import (
	"testing"
	"testing/quick"

	"lasvegas/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Error("side 2 accepted (no 2×2 magic square exists)")
	}
	p, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 16 || p.n != 4 || p.magic != 34 {
		t.Errorf("size=%d side=%d magic=%d", p.Size(), p.n, p.magic)
	}
}

func TestMagicConstants(t *testing.T) {
	for _, c := range []struct{ n, m int }{{3, 15}, {4, 34}, {5, 65}, {10, 505}, {200, 4000100}} {
		p, err := New(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if p.magic != c.m {
			t.Errorf("N=%d magic %d, want %d", c.n, p.magic, c.m)
		}
	}
}

func TestLoShuSquare(t *testing.T) {
	// The 3×3 Lo Shu square: 2 7 6 / 9 5 1 / 4 3 8.
	p, _ := New(3)
	values := []int{2, 7, 6, 9, 5, 1, 4, 3, 8}
	sol := make([]int, 9)
	for i, v := range values {
		sol[i] = v - 1
	}
	if c := p.Cost(sol); c != 0 {
		t.Errorf("Lo Shu cost %d", c)
	}
	if !p.IsSolution(sol) {
		t.Error("Lo Shu rejected")
	}
}

func TestCostCountsAllLines(t *testing.T) {
	// Identity layout of N=3: rows sum 6,15,24; cols 12,15,18; diag 15; anti 15.
	// Deviations from 15: 9+0+9 + 3+0+3 + 0 + 0 = 24.
	p, _ := New(3)
	sol := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if c := p.Cost(sol); c != 24 {
		t.Errorf("identity cost %d, want 24", c)
	}
}

func TestSwapSameRow(t *testing.T) {
	p, _ := New(4)
	r := xrand.New(9)
	sol := r.Perm(16)
	p.InitState(sol)
	cost := p.Cost(sol)
	// positions 0 and 3 share row 0.
	probe := p.CostIfSwap(sol, cost, 0, 3)
	sol[0], sol[3] = sol[3], sol[0]
	if want := p.Cost(sol); probe != want {
		t.Errorf("same-row swap: probe %d, want %d", probe, want)
	}
}

func TestSwapSameColumnAndDiagonal(t *testing.T) {
	p, _ := New(4)
	r := xrand.New(10)
	sol := r.Perm(16)
	p.InitState(sol)
	cost := p.Cost(sol)
	cases := [][2]int{
		{0, 12},  // same column 0
		{0, 5},   // both on main diagonal
		{3, 6},   // both on anti-diagonal
		{0, 15},  // diagonal endpoints
		{12, 15}, // same row, anti/main diagonal cells
	}
	for _, c := range cases {
		i, j := c[0], c[1]
		probe := p.CostIfSwap(sol, cost, i, j)
		sol[i], sol[j] = sol[j], sol[i]
		if want := p.Cost(sol); probe != want {
			t.Fatalf("swap (%d,%d): probe %d, want %d", i, j, probe, want)
		}
		sol[i], sol[j] = sol[j], sol[i]
	}
}

func TestCostOnVariableDiagonalCells(t *testing.T) {
	p, _ := New(3)
	sol := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	p.InitState(sol)
	// Center cell (1,1) is on row 1 (sum 15), col 1 (15), both diagonals (15, 15):
	// all satisfied → zero error despite global cost 24.
	if e := p.CostOnVariable(sol, 4); e != 0 {
		t.Errorf("center error %d, want 0", e)
	}
	// Corner (0,0): row 0 off by 9, col 0 off by 3, diag 0 → 12.
	if e := p.CostOnVariable(sol, 0); e != 12 {
		t.Errorf("corner error %d, want 12", e)
	}
}

func TestIncrementalPropertyRandomWalk(t *testing.T) {
	p, _ := New(5)
	r := xrand.New(17)
	sol := r.Perm(25)
	p.InitState(sol)
	cost := p.Cost(sol)
	f := func(a, b uint8) bool {
		i, j := int(a)%25, int(b)%25
		if i == j {
			return true
		}
		probe := p.CostIfSwap(sol, cost, i, j)
		sol[i], sol[j] = sol[j], sol[i]
		ok := probe == p.Cost(sol)
		p.ExecutedSwap(sol, i, j)
		cost = probe
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
