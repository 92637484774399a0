package policy

import (
	"math"
	"sort"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// TestLubyWalkMatchesTerm checks the reluctant-doubling walk that
// lubyExpected steps through against the recursive lubyTerm at every
// index the series can reach.
func TestLubyWalkMatchesTerm(t *testing.T) {
	w := newLubyWalk()
	for i := 1; i <= lubyMaxRuns; i++ {
		if want := lubyTerm(i); w.term != want {
			t.Fatalf("walk step %d: term %d, lubyTerm %d", i, w.term, want)
		}
		w.next()
	}
}

// bruteOptimal prices every atom of a weighted sample as a fixed
// cutoff by the LSZ formula Σ min(x,c)·w / Σ_{x≤c} w, summed directly
// over the atoms, and returns the cheapest price (+Inf for none).
func bruteOptimal(xs, ws []float64) (bestC, bestE float64) {
	bestC, bestE = math.Inf(1), math.Inf(1)
	for _, c := range xs {
		if !(c > 0) {
			continue
		}
		var tm, below float64
		for i, x := range xs {
			tm += math.Min(x, c) * ws[i]
			if x <= c {
				below += ws[i]
			}
		}
		if e := tm / below; e < bestE {
			bestC, bestE = c, e
		}
	}
	return bestC, bestE
}

// TestOptimalMatchesBruteForce is the restart pricer's oracle: on
// random step laws of at most optimalGrid atoms, unit-weight and
// weighted (integer weights, which the quantile grid would step over
// when an atom's mass is below one grid step), Optimal must find the
// brute-force optimum over every atom, or report no-restart exactly
// when no atom beats the mean.
func TestOptimalMatchesBruteForce(t *testing.T) {
	r := xrand.New(23)
	// At this seed law 583 is weighted, and a grid scan misses its
	// optimum (cutoff 66 at 25.1035 against 65 at 25.1146).
	for k := range 600 {
		m := 1 + r.Intn(optimalGrid)
		if k%3 == 0 {
			m = 1 + r.Intn(24) // small laws, where ties are common
		}
		sigma := 0.3 + 2.5*r.Float64()
		weighted := k%2 == 1
		xs := make([]float64, m)
		ws := make([]float64, m)
		for i := range xs {
			xs[i] = math.Ceil(math.Exp(sigma*r.Norm() + 3)) // solver iteration counts: ties
			ws[i] = 1
			if weighted {
				ws[i] = float64(1 + r.Intn(50))
			}
		}
		sort.Float64s(xs)
		var d dist.Dist
		if weighted {
			cum := make([]float64, m)
			var run float64
			for i, w := range ws {
				run += w
				cum[i] = run
			}
			st := dist.NewStep(xs, cum, nil, xs[0], xs[m-1])
			d = &st
		} else {
			d = must(dist.NewEmpirical(xs))
		}
		p, e, err := Optimal(d)
		if err != nil {
			t.Fatal(err)
		}
		meanY := d.Mean()
		bestC, bestE := bruteOptimal(xs, ws)
		if !(bestE < meanY*(1-1e-9)) {
			if !math.IsInf(p.Cutoff, 1) || e != meanY {
				t.Errorf("law %d (m=%d, weighted %v): brute force finds no win (%v vs mean %v), Optimal gives cutoff %v at %v",
					k, m, weighted, bestE, meanY, p.Cutoff, e)
			}
			continue
		}
		if math.Abs(e-bestE) > 1e-12*bestE {
			t.Errorf("law %d (m=%d, weighted %v): Optimal prices cutoff %v at %.15g, brute force cutoff %v at %.15g",
				k, m, weighted, p.Cutoff, e, bestC, bestE)
		}
	}
}
