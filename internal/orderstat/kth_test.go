package orderstat

import (
	"math"
	"slices"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

func TestKthReducesToMinAtK1(t *testing.T) {
	base, _ := dist.NewShiftedExponential(10, 0.01)
	m := Min{Base: base, N: 8}
	e1, err := KthMoment(base, 1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := KthMoment(base, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, e1, m.Mean(), 1e-6, "k=1 mean equals min mean")
	approx(t, e2-e1*e1, m.Var(), 1e-6, "k=1 variance equals min variance")
}

func TestKthMaxOrderStatistic(t *testing.T) {
	// k = n is the maximum: X_(5:5) of U(0,1) is Beta(5, 1).
	base := uniform{lo: 0, hi: 1}
	m1, err := KthMoment(base, 5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := KthMoment(base, 5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, m1, 5.0/6, 1e-6, "uniform max mean")
	approx(t, m2, 5.0/7, 1e-6, "uniform max second moment")
}

func TestKthUniformClosedForms(t *testing.T) {
	// X_(k:n) of U(0,1) is Beta(k, n-k+1):
	// Var = k(n-k+1)/((n+1)²(n+2)).
	base := uniform{lo: 0, hi: 1}
	const n = 7
	for k := 1; k <= n; k++ {
		m1, err := KthMoment(base, k, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := KthMoment(base, k, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		kf := float64(k)
		want := kf * (n - kf + 1) / ((n + 1) * (n + 1) * (n + 2))
		approx(t, m2-m1*m1, want, 1e-6, "uniform k-th variance")
	}
}

func TestKthOrderingOfMeans(t *testing.T) {
	// Means must increase with k.
	base, _ := dist.NewLogNormal(0, 3, 1)
	prev := math.Inf(-1)
	for k := 1; k <= 6; k++ {
		m, err := KthMoment(base, k, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m <= prev {
			t.Fatalf("E[X_(%d:6)] = %v not increasing (prev %v)", k, m, prev)
		}
		prev = m
	}
}

func TestKthSampleMatchesMean(t *testing.T) {
	// Brute force: the 3rd smallest of 9 Weibull draws, averaged.
	base, _ := dist.NewWeibull(1.5, 50)
	want, err := KthMoment(base, 3, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(123)
	const reps = 60000
	draws := make([]float64, 9)
	var sum float64
	for i := 0; i < reps; i++ {
		for j := range draws {
			draws[j] = base.Sample(r)
		}
		slices.Sort(draws)
		sum += draws[2]
	}
	approx(t, sum/reps, want, 0.02, "sampled mean vs analytic")
}

func TestKthStragglerAnalysis(t *testing.T) {
	// Multi-walk interpretation: with 16 exponential walkers, the
	// median finisher (k=8) takes substantially longer than the
	// winner (k=1) — the work the cancellation discards.
	base, _ := dist.NewExponential(0.001)
	winner, err := KthMoment(base, 1, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	median, err := KthMoment(base, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Exponential order statistics: E[X_(k:n)] = (1/λ)·Σ_{i=0}^{k-1} 1/(n-i).
	wantWinner := 1000.0 / 16
	var wantMedian float64
	for i := 0; i < 8; i++ {
		wantMedian += 1000.0 / float64(16-i)
	}
	approx(t, winner, wantWinner, 1e-5, "winner mean")
	approx(t, median, wantMedian, 1e-5, "median finisher mean")
	if median < 5*winner {
		t.Errorf("median straggler %v vs winner %v — expected ≫", median, winner)
	}
}

func TestKthValidation(t *testing.T) {
	base, _ := dist.NewExponential(1)
	if _, err := KthMoment(base, 0, 2, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KthMoment(base, 3, 2, 1); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := KthMoment(base, 1, 2, 0); err == nil {
		t.Error("r=0 accepted")
	}
}
