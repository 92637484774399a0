package fit

import (
	"math"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/stats"
	"lasvegas/internal/xrand"
)

func sample(t *testing.T, d dist.Dist, n int, seed uint64) []float64 {
	t.Helper()
	return dist.SampleN(d, xrand.New(seed), n)
}

func TestShiftedExponentialEstimators(t *testing.T) {
	// The paper's estimators: x0 = min, λ = 1/(mean - x0).
	xs := []float64{10, 20, 30, 40}
	d, err := ShiftedExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Shift != 10 {
		t.Errorf("x0 = %v, want 10", d.Shift)
	}
	if want := 1.0 / 15; math.Abs(d.Rate-want) > 1e-12 {
		t.Errorf("λ = %v, want %v", d.Rate, want)
	}
}

func TestShiftedExponentialRecovery(t *testing.T) {
	truth, _ := dist.NewShiftedExponential(1217, 9.15956e-6)
	xs := sample(t, truth, 720, 1)
	d, err := ShiftedExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Shift-1217) > 0.15*truth.Mean() {
		t.Errorf("recovered shift %v far from 1217", d.Shift)
	}
	if math.Abs(d.Rate-truth.Rate) > 0.1*truth.Rate {
		t.Errorf("recovered rate %v far from %v", d.Rate, truth.Rate)
	}
}

func TestExponentialRecovery(t *testing.T) {
	truth, _ := dist.NewExponential(5.4e-9)
	xs := sample(t, truth, 638, 2)
	d, err := Exponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Rate-truth.Rate) > 0.1*truth.Rate {
		t.Errorf("rate %v, want ≈%v", d.Rate, truth.Rate)
	}
	if d.Shift != 0 {
		t.Errorf("unshifted fit has shift %v", d.Shift)
	}
}

func TestLogNormalShiftRecovery(t *testing.T) {
	truth, _ := dist.NewLogNormal(6210, 12.0275, 1.3398)
	xs := sample(t, truth, 662, 3)
	d, err := LogNormalShift(xs, 6210)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mu-12.0275) > 0.2 {
		t.Errorf("μ = %v, want ≈12.03", d.Mu)
	}
	if math.Abs(d.Sigma-1.3398) > 0.15 {
		t.Errorf("σ = %v, want ≈1.34", d.Sigma)
	}
}

func TestLogNormalProfileRecovery(t *testing.T) {
	truth, _ := dist.NewLogNormal(0, 5, 1)
	xs := sample(t, truth, 700, 4)
	d, err := LogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mu-5) > 0.3 {
		t.Errorf("μ = %v, want ≈5", d.Mu)
	}
	if math.Abs(d.Sigma-1) > 0.2 {
		t.Errorf("σ = %v, want ≈1", d.Sigma)
	}
}

func TestLogNormalShiftRejectsBelowShift(t *testing.T) {
	if _, err := LogNormalShift([]float64{5, 10, 20}, 7); err == nil {
		t.Error("observation below shift accepted")
	}
}

func TestNormalRecovery(t *testing.T) {
	truth, _ := dist.NewNormal(100, 15)
	xs := sample(t, truth, 1000, 5)
	d, err := Normal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mu-100) > 2 || math.Abs(d.Sigma-15) > 1.5 {
		t.Errorf("recovered N(%v, %v)", d.Mu, d.Sigma)
	}
}

func TestGammaRecovery(t *testing.T) {
	truth, _ := dist.NewGamma(2.5, 0.4)
	xs := sample(t, truth, 2000, 6)
	d, err := Gamma(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Shape-2.5) > 0.3 {
		t.Errorf("shape %v, want ≈2.5", d.Shape)
	}
	if math.Abs(d.Rate-0.4) > 0.06 {
		t.Errorf("rate %v, want ≈0.4", d.Rate)
	}
}

func TestWeibullRecovery(t *testing.T) {
	truth, _ := dist.NewWeibull(1.8, 50)
	xs := sample(t, truth, 2000, 7)
	d, err := Weibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Shape-1.8) > 0.15 {
		t.Errorf("shape %v, want ≈1.8", d.Shape)
	}
	if math.Abs(d.Scale-50) > 3 {
		t.Errorf("scale %v, want ≈50", d.Scale)
	}
}

func TestLevyFitIsAccepted(t *testing.T) {
	truth, _ := dist.NewLevy(10, 3)
	xs := sample(t, truth, 800, 8)
	d, err := Levy(xs)
	if err != nil {
		t.Fatal(err)
	}
	if d.C <= 0 {
		t.Errorf("scale %v", d.C)
	}
	if d.Loc >= stats.Min(xs) {
		t.Errorf("location %v not below sample min %v", d.Loc, stats.Min(xs))
	}
}

func TestNegligibleShift(t *testing.T) {
	// Costas-like: min tiny vs mean.
	if !NegligibleShift([]float64{3.2e5, 1.8e8, 2.5e8, 3.6e8}) {
		t.Error("Costas-like sample should have negligible shift")
	}
	// AI-like: x0 of the same order as the mean spread.
	if NegligibleShift([]float64{1217, 50000, 110393, 300000}) {
		t.Error("AI-like sample should not have negligible shift")
	}
}

func TestDegenerateSamples(t *testing.T) {
	if _, err := ShiftedExponential([]float64{5, 5, 5}); err == nil {
		t.Error("zero-spread sample accepted by ShiftedExponential")
	}
	if _, err := Exponential(nil); err == nil {
		t.Error("empty sample accepted by Exponential")
	}
	if _, err := Gamma([]float64{1, -2, 3}); err == nil {
		t.Error("negative observation accepted by Gamma")
	}
	if _, err := Weibull([]float64{0, 1, 2}); err == nil {
		t.Error("zero observation accepted by Weibull")
	}
	if _, err := Normal([]float64{7}); err == nil {
		t.Error("single observation accepted by Normal")
	}
	for fam := range Table {
		if r := One(nil, fam); r.Err == nil {
			t.Errorf("empty sample accepted by One(%s)", fam)
		}
	}
}
