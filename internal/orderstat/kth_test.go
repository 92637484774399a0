package orderstat

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/quad"
	"lasvegas/internal/xrand"
)

// KthMoment returns E[X₍k:n₎ʳ], the r-th moment of the k-th order
// statistic, via the Nadarajah quantile-domain formula
//
//	E[X₍k:n₎ʳ] = n·C(n-1, k-1)·∫₀¹ Q(u)ʳ·u^{k-1}·(1-u)^{n-k} du.
//
// The beta-weighted integrand is evaluated in log space.
func KthMoment(d dist.Dist, k, n, r int) (float64, error) {
	if n < 1 || k < 1 || k > n || r < 1 {
		return 0, fmt.Errorf("%w: order statistic k=%d of n=%d, moment %d", dist.ErrParam, k, n, r)
	}
	if k == 1 && r == 1 {
		return Moment(d, n, 1)
	}
	logC := logBinomial(n-1, k-1) + math.Log(float64(n))
	kf, nf := float64(k), float64(n)
	integrand := func(u float64) float64 {
		if u <= 0 || u >= 1 {
			return 0
		}
		q := d.Quantile(u)
		w := math.Exp(logC + (kf-1)*math.Log(u) + (nf-kf)*math.Log1p(-u))
		if r == 1 {
			return q * w
		}
		return math.Pow(q, float64(r)) * w
	}
	return quad.Unit(integrand, integTol)
}

// logBinomial returns log C(n, k).
func logBinomial(n, k int) float64 {
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}

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
