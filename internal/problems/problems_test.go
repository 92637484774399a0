package problems

import (
	"testing"

	"lasvegas/internal/csp"
	"lasvegas/internal/xrand"
)

// allKinds lists every registered family in name order.
var allKinds = []Kind{AllInterval, Costas, MagicSquare, Queens}

// TestIncrementalMatchesFullCost is the central property test of the
// problem layer: for every family, InitState, CostIfSwap, SwapCosts,
// VariableCosts and ExecutedSwap must stay consistent with the
// from-scratch Cost and the per-cell CostOnVariable under random swap
// sequences.
func TestIncrementalMatchesFullCost(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			size := DefaultSize(kind)
			if kind == MagicSquare {
				size = 5
			}
			p, err := New(kind, size)
			if err != nil {
				t.Fatal(err)
			}
			inc, ok := p.(csp.Incremental)
			if !ok {
				t.Fatalf("%s does not implement csp.Incremental", kind)
			}
			r := xrand.New(2024)
			sol := r.Perm(p.Size())
			cost := inc.InitState(sol)
			if want := p.Cost(sol); cost != want {
				t.Fatalf("InitState=%d, full recompute=%d", cost, want)
			}
			for step := 0; step < 500; step++ {
				i, j := r.Intn(len(sol)), r.Intn(len(sol))
				checkBatchKernels(t, p, sol, cost, i)
				if i == j {
					continue
				}
				probe := inc.CostIfSwap(sol, cost, i, j)
				// Probing must not corrupt state: a re-probe agrees.
				if again := inc.CostIfSwap(sol, cost, i, j); again != probe {
					t.Fatalf("step %d: CostIfSwap not idempotent: %d then %d", step, probe, again)
				}
				sol[i], sol[j] = sol[j], sol[i]
				want := p.Cost(sol)
				if probe != want {
					t.Fatalf("step %d (i=%d j=%d): CostIfSwap=%d, full recompute=%d", step, i, j, probe, want)
				}
				inc.ExecutedSwap(sol, i, j)
				cost = probe
			}
		})
	}
}

// checkBatchKernels checks the batched kernels at sol, whose
// incremental state is current and whose cost is cost: the SwapCosts
// row of culprit i against Cost of every swapped configuration (cost
// itself at i), and VariableCosts against CostOnVariable per position.
func checkBatchKernels(t *testing.T, p csp.Problem, sol []int, cost, i int) {
	t.Helper()
	inc := p.(csp.Incremental)
	vc := p.(csp.VariableCost)
	row := make([]int, len(sol))
	inc.SwapCosts(sol, cost, i, row)
	for k, got := range row {
		sol[i], sol[k] = sol[k], sol[i]
		want := p.Cost(sol)
		sol[i], sol[k] = sol[k], sol[i]
		if got != want {
			t.Fatalf("%s: SwapCosts(i=%d)[%d]=%d, full recompute=%d (sol %v)", p.Name(), i, k, got, want, sol)
		}
	}
	errs := make([]int, len(sol))
	vc.VariableCosts(sol, errs)
	for k, got := range errs {
		if want := vc.CostOnVariable(sol, k); got != want {
			t.Fatalf("%s: VariableCosts[%d]=%d, CostOnVariable=%d (sol %v)", p.Name(), k, got, want, sol)
		}
	}
}

// FuzzSwapCosts walks random swap sequences on random instances of
// every family and checks the batched kernels at every step, as
// TestIncrementalMatchesFullCost does for one fixed walk per family.
func FuzzSwapCosts(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1), uint8(20))
	f.Add(uint8(1), uint8(9), uint64(2), uint8(40))
	f.Add(uint8(2), uint8(2), uint64(3), uint8(40))
	f.Add(uint8(3), uint8(30), uint64(4), uint8(60))
	f.Fuzz(func(t *testing.T, kindIdx, size uint8, seed uint64, steps uint8) {
		kinds := allKinds
		kind := kinds[int(kindIdx)%len(kinds)]
		// Smallest valid size up to a cap that keeps one input cheap.
		lo, hi := 3, 40
		switch kind {
		case MagicSquare:
			hi = 7
		case Costas:
			hi = 16
		case Queens:
			lo = 4
		}
		p, err := New(kind, lo+int(size)%(hi-lo+1))
		if err != nil {
			t.Fatal(err)
		}
		inc := p.(csp.Incremental)
		r := xrand.New(seed)
		sol := r.Perm(p.Size())
		cost := inc.InitState(sol)
		if want := p.Cost(sol); cost != want {
			t.Fatalf("%s: InitState=%d, full recompute=%d", p.Name(), cost, want)
		}
		for step := 0; step < int(steps)%64; step++ {
			i, j := r.Intn(len(sol)), r.Intn(len(sol))
			checkBatchKernels(t, p, sol, cost, i)
			if i == j {
				continue
			}
			cost = inc.CostIfSwap(sol, cost, i, j)
			sol[i], sol[j] = sol[j], sol[i]
			inc.ExecutedSwap(sol, i, j)
			if want := p.Cost(sol); cost != want {
				t.Fatalf("%s: step %d: CostIfSwap=%d, full recompute=%d", p.Name(), step, cost, want)
			}
		}
	})
}

// TestCostOnVariableNonNegative checks the error projection is
// non-negative everywhere and zero everywhere on a solved state.
func TestCostOnVariableNonNegative(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p, err := New(kind, DefaultSize(kind))
			if err != nil {
				t.Fatal(err)
			}
			vc, ok := p.(csp.VariableCost)
			if !ok {
				t.Fatalf("%s does not implement csp.VariableCost", kind)
			}
			inc := p.(csp.Incremental)
			r := xrand.New(7)
			sol := r.Perm(p.Size())
			inc.InitState(sol)
			for i := range sol {
				if e := vc.CostOnVariable(sol, i); e < 0 {
					t.Errorf("variable %d has negative error %d", i, e)
				}
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	for _, kind := range allKinds {
		if _, err := New(kind, 1); err == nil {
			t.Errorf("%s accepted size 1", kind)
		}
	}
	if _, err := New(Kind("nonsense"), 10); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestPaperSizes(t *testing.T) {
	cases := map[Kind]int{AllInterval: 700, MagicSquare: 200, Costas: 21}
	for kind, want := range cases {
		got, ok := PaperSize(kind)
		if !ok || got != want {
			t.Errorf("PaperSize(%s) = %d, %v", kind, got, ok)
		}
	}
	if _, ok := PaperSize(Queens); ok {
		t.Error("queens is not a paper benchmark")
	}
}

func TestNamesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, kind := range allKinds {
		p, err := New(kind, DefaultSize(kind))
		if err != nil {
			t.Fatal(err)
		}
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("bad or duplicate name %q", name)
		}
		seen[name] = true
	}
}

func TestValidate(t *testing.T) {
	p, _ := New(Queens, 8)
	if !csp.Validate(p, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Error("identity permutation rejected")
	}
	if csp.Validate(p, []int{0, 1, 2, 3, 4, 5, 6, 6}) {
		t.Error("repeated value accepted")
	}
	if csp.Validate(p, []int{0, 1, 2}) {
		t.Error("short configuration accepted")
	}
}
