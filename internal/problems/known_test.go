package problems

import (
	"testing"

	"lasvegas/internal/problems/allinterval"
	"lasvegas/internal/problems/costas"
	"lasvegas/internal/problems/magicsquare"
	"lasvegas/internal/problems/queens"
)

// Known solutions taken from the paper itself and from the classical
// literature, pinning the cost functions to the real constraints.

func TestPaperAllIntervalSolution(t *testing.T) {
	// §5.1: (3, 6, 0, 7, 2, 4, 5, 1) is a solution for N = 8.
	p, err := allinterval.New(8)
	if err != nil {
		t.Fatal(err)
	}
	sol := []int{3, 6, 0, 7, 2, 4, 5, 1}
	if c := p.Cost(sol); c != 0 {
		t.Errorf("paper's AI solution has cost %d", c)
	}
	if !p.IsSolution(sol) {
		t.Error("paper's AI solution rejected")
	}
	// Breaking it must cost something.
	bad := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if c := p.Cost(bad); c != 6 {
		// identity: all distances are 1 → seven 1s → excess 6
		t.Errorf("identity AI cost %d, want 6", c)
	}
}

func TestDurerMagicSquare(t *testing.T) {
	// §5.2 shows Dürer's 4×4 square (Melencolia I, 1514):
	//   16  3  2 13
	//    5 10 11  8
	//    9  6  7 12
	//    4 15 14  1
	p, err := magicsquare.New(4)
	if err != nil {
		t.Fatal(err)
	}
	values := []int{16, 3, 2, 13, 5, 10, 11, 8, 9, 6, 7, 12, 4, 15, 14, 1}
	sol := make([]int, len(values))
	for i, v := range values {
		sol[i] = v - 1 // configuration stores value-1
	}
	if c := p.Cost(sol); c != 0 {
		t.Errorf("Dürer square has cost %d", c)
	}
	if !p.IsSolution(sol) {
		t.Error("Dürer square rejected")
	}
	// Swapping two cells in different rows/cols must break it.
	sol[0], sol[5] = sol[5], sol[0]
	if p.Cost(sol) == 0 {
		t.Error("corrupted square still accepted")
	}
}

func TestPaperCostasSolution(t *testing.T) {
	// §5.3: the example Costas array of size 5 is [3, 4, 2, 1, 5]
	// (1-based rows); 0-based: [2, 3, 1, 0, 4].
	p, err := costas.New(5)
	if err != nil {
		t.Fatal(err)
	}
	sol := []int{2, 3, 1, 0, 4}
	if c := p.Cost(sol); c != 0 {
		t.Errorf("paper's Costas array has cost %d", c)
	}
	if !p.IsSolution(sol) {
		t.Error("paper's Costas array rejected")
	}
	// The identity permutation has maximally repeated differences.
	identity := []int{0, 1, 2, 3, 4}
	if p.Cost(identity) == 0 {
		t.Error("identity accepted as Costas array")
	}
}

func TestCostasKnownCounts(t *testing.T) {
	// All 4! = 24 permutations of order 4: the number of Costas arrays
	// of order 4 is 12 (classical enumeration result).
	p, _ := costas.New(4)
	perm := []int{0, 1, 2, 3}
	count := 0
	var rec func(k int)
	rec = func(k int) {
		if k == 4 {
			if p.Cost(perm) == 0 {
				count++
			}
			return
		}
		for i := k; i < 4; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if count != 12 {
		t.Errorf("found %d Costas arrays of order 4, want 12", count)
	}
}

func TestQueensKnownSolution(t *testing.T) {
	p, err := queens.New(8)
	if err != nil {
		t.Fatal(err)
	}
	// A classical 8-queens solution.
	sol := []int{0, 4, 7, 5, 2, 6, 1, 3}
	if c := p.Cost(sol); c != 0 {
		t.Errorf("known 8-queens solution has cost %d", c)
	}
	// All queens on one diagonal: n-1 excess conflicts on the main
	// direction. (Identity permutation: every queen on the same
	// anti-diagonal? No — identity puts them all on distinct main
	// diagonals i+i and one shared difference diagonal i-i=0.)
	identity := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if c := p.Cost(identity); c != 7 {
		t.Errorf("identity queens cost %d, want 7", c)
	}
}

func TestQueensCountForN6(t *testing.T) {
	// N=6 has exactly 4 solutions (classical result).
	p, _ := queens.New(6)
	perm := []int{0, 1, 2, 3, 4, 5}
	count := 0
	var rec func(k int)
	rec = func(k int) {
		if k == 6 {
			if p.Cost(perm) == 0 {
				count++
			}
			return
		}
		for i := k; i < 6; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if count != 4 {
		t.Errorf("found %d 6-queens solutions, want 4", count)
	}
}

func TestAllIntervalDistancesOfSolutionAreDistinct(t *testing.T) {
	p, _ := allinterval.New(8)
	sol := []int{3, 6, 0, 7, 2, 4, 5, 1}
	if !p.IsSolution(sol) {
		t.Fatal("precondition failed")
	}
	seen := map[int]bool{}
	for i := 0; i+1 < len(sol); i++ {
		d := sol[i] - sol[i+1]
		if d < 0 {
			d = -d
		}
		if seen[d] {
			t.Fatalf("distance %d repeated", d)
		}
		seen[d] = true
	}
}
