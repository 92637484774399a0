package csp

import (
	"testing"
)

// toy is a minimal non-incremental permutation problem: cost = number
// of fixed points (sol[i] == i); solutions are derangements.
type toy struct{ n int }

func (t toy) Size() int    { return t.n }
func (t toy) Name() string { return "toy" }
func (t toy) Cost(sol []int) int {
	c := 0
	for i, v := range sol {
		if v == i {
			c++
		}
	}
	return c
}

// incToy wraps toy with a (deliberately simple) incremental layer.
type incToy struct {
	toy
	calls int
}

func (t *incToy) InitState(sol []int) int { return t.Cost(sol) }
func (t *incToy) CostIfSwap(sol []int, cost, i, j int) int {
	t.calls++
	sol[i], sol[j] = sol[j], sol[i]
	c := t.Cost(sol)
	sol[i], sol[j] = sol[j], sol[i]
	return c
}
func (t *incToy) SwapCosts(sol []int, cost, i int, out []int) {
	for k := range out {
		out[k] = t.CostIfSwap(sol, cost, i, k)
	}
}
func (t *incToy) ExecutedSwap([]int, int, int) {}

func TestCostIfSwapFallback(t *testing.T) {
	p := toy{5}
	sol := []int{0, 1, 2, 3, 4}
	cost := p.Cost(sol)
	if cost != 5 {
		t.Fatalf("identity cost %d", cost)
	}
	// Swapping 0 and 1 removes two fixed points.
	if c := CostIfSwap(p, sol, cost, 0, 1); c != 3 {
		t.Errorf("CostIfSwap = %d, want 3", c)
	}
	// The probe must not mutate sol.
	for i, v := range sol {
		if v != i {
			t.Fatal("fallback probe mutated the configuration")
		}
	}
}

func TestCostIfSwapUsesIncrementalPath(t *testing.T) {
	p := &incToy{toy: toy{4}}
	sol := []int{0, 1, 2, 3}
	CostIfSwap(p, sol, 4, 1, 2)
	if p.calls != 1 {
		t.Errorf("incremental path not taken (calls=%d)", p.calls)
	}
}

func TestValidate(t *testing.T) {
	p := toy{4}
	cases := []struct {
		sol []int
		ok  bool
	}{
		{[]int{0, 1, 2, 3}, true},
		{[]int{3, 2, 1, 0}, true},
		{[]int{0, 1, 2}, false},       // short
		{[]int{0, 1, 2, 2}, false},    // duplicate
		{[]int{0, 1, 2, 4}, false},    // out of range
		{[]int{-1, 1, 2, 3}, false},   // negative
		{[]int{0, 1, 2, 3, 4}, false}, // long
	}
	for _, c := range cases {
		if got := Validate(p, c.sol); got != c.ok {
			t.Errorf("Validate(%v) = %v, want %v", c.sol, got, c.ok)
		}
	}
}
