package quad

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.15g, want %.15g", msg, got, want)
	}
}

func TestTanhSinhSmooth(t *testing.T) {
	v, err := TanhSinh(math.Exp, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, math.E-1, 1e-10, "tanh-sinh ∫eˣ")
}

func TestTanhSinhEndpointSingularity(t *testing.T) {
	// ∫₀¹ 1/√x dx = 2, singular at 0.
	v, err := TanhSinh(func(x float64) float64 { return 1 / math.Sqrt(x) }, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, 2, 1e-8, "∫x^{-1/2}")
}

func TestTanhSinhLogSingularity(t *testing.T) {
	// ∫₀¹ ln(x) dx = -1.
	v, err := TanhSinh(math.Log, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, -1, 1e-9, "∫ln x")
}

func TestToInfinityExponential(t *testing.T) {
	v, err := ToInfinity(func(x float64) float64 { return math.Exp(-x) }, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, 1, 1e-9, "∫₀^∞ e^{-x}")
}

func TestToInfinityShifted(t *testing.T) {
	// ∫₅^∞ e^{-(x-5)} dx = 1
	v, err := ToInfinity(func(x float64) float64 { return math.Exp(-(x - 5)) }, 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, 1, 1e-9, "shifted exponential mass")
}

func TestToInfinityMeanOfExponential(t *testing.T) {
	// E[X] for rate λ=0.25: ∫ x λ e^{-λx} = 4.
	lam := 0.25
	v, err := ToInfinity(func(x float64) float64 { return x * lam * math.Exp(-lam*x) }, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, 4, 1e-8, "exponential mean")
}

func TestUnitQuantileDomainExpectation(t *testing.T) {
	// E[X] = ∫₀¹ Q(u) du for exponential rate 1: Q(u) = -ln(1-u), E = 1.
	v, err := Unit(func(u float64) float64 { return -math.Log1p(-u) }, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, v, 1, 1e-9, "quantile-domain mean")
}

func BenchmarkTanhSinhSmooth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = TanhSinh(math.Exp, 0, 1, 1e-10)
	}
}
