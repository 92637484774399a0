package specfn

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %v, want %v (tol %g)", msg, got, want, tol)
	}
}

func TestErfInvRoundTrip(t *testing.T) {
	for _, x := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 0.1, 0.5, 0.9, 0.999, 0.9999999} {
		y := ErfInv(x)
		approx(t, math.Erf(y), x, 1e-12, "erf(erfinv(x))")
	}
}

func TestErfInvProperty(t *testing.T) {
	f := func(u float64) bool {
		x := math.Mod(math.Abs(u), 1) // map to [0,1)
		if x >= 1 {
			return true
		}
		y := ErfInv(x)
		return math.Abs(math.Erf(y)-x) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErfInvEdges(t *testing.T) {
	if !math.IsInf(ErfInv(1), 1) {
		t.Error("ErfInv(1) should be +Inf")
	}
	if !math.IsInf(ErfInv(-1), -1) {
		t.Error("ErfInv(-1) should be -Inf")
	}
	if !math.IsNaN(ErfInv(1.5)) || !math.IsNaN(ErfInv(-2)) {
		t.Error("ErfInv outside [-1,1] should be NaN")
	}
	if ErfInv(0) != 0 {
		t.Error("ErfInv(0) should be 0")
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	// Reference values from standard normal tables.
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.84134474606854293, 1},
		{0.9986501019683699, 3},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		approx(t, NormQuantile(c.p), c.z, 1e-8, "NormQuantile")
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	cdf := func(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
	for p := 0.0001; p < 1; p += 0.0173 {
		approx(t, cdf(NormQuantile(p)), p, 1e-12, "Phi(Phi^-1(p))")
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}
	for _, x := range []float64{0.1, 1, 2, 5, 10} {
		approx(t, GammaP(1, x), 1-math.Exp(-x), 1e-12, "P(1,x)")
	}
	// P(1/2, x) = erf(sqrt(x))
	for _, x := range []float64{0.25, 1, 4} {
		approx(t, GammaP(0.5, x), math.Erf(math.Sqrt(x)), 1e-12, "P(1/2,x)")
	}
	// Median of gamma(a=5): P(5, 4.670909) ≈ 0.5
	approx(t, GammaP(5, 4.670908882603672), 0.5, 1e-8, "gamma(5) median")
}

func TestGammaPQComplement(t *testing.T) {
	// GammaP switches from the power series for P to the continued
	// fraction for Q = 1-P at x = a+1; around the switch both converge,
	// so P by series and Q by fraction must sum to one.
	for _, a := range []float64{0.3, 1, 2.5, 10, 100} {
		for _, dx := range []float64{-0.5, 0, 0.5, 2} {
			x := a + 1 + dx
			approx(t, gammaSeries(a, x)+gammaCF(a, x), 1, 1e-12, "P+Q=1")
		}
	}
}

func TestGammaPEdges(t *testing.T) {
	if GammaP(2, 0) != 0 {
		t.Error("P(a,0) should be 0")
	}
	if GammaP(2, math.Inf(1)) != 1 {
		t.Error("P(a,Inf) should be 1")
	}
	if !math.IsNaN(GammaP(-1, 2)) || !math.IsNaN(GammaP(2, -1)) {
		t.Error("invalid domain should give NaN")
	}
}

func TestGammaPMonotone(t *testing.T) {
	f := func(a, x1, x2 float64) bool {
		a = 0.1 + math.Mod(math.Abs(a), 20)
		x1 = math.Mod(math.Abs(x1), 50)
		x2 = math.Mod(math.Abs(x2), 50)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return GammaP(a, x1) <= GammaP(a, x2)+1e-14
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDigammaKnownValues(t *testing.T) {
	const euler = 0.5772156649015329
	approx(t, Digamma(1), -euler, 1e-12, "psi(1)")
	approx(t, Digamma(0.5), -euler-2*math.Ln2, 1e-12, "psi(1/2)")
	approx(t, Digamma(2), 1-euler, 1e-12, "psi(2)")
	// Recurrence psi(x+1) = psi(x) + 1/x
	for _, x := range []float64{0.3, 1.7, 4.2, 11} {
		approx(t, Digamma(x+1), Digamma(x)+1/x, 1e-11, "psi recurrence")
	}
}

func TestTrigammaKnownValues(t *testing.T) {
	approx(t, Trigamma(1), math.Pi*math.Pi/6, 1e-10, "psi'(1)")
	approx(t, Trigamma(0.5), math.Pi*math.Pi/2, 1e-10, "psi'(1/2)")
	// Recurrence psi'(x+1) = psi'(x) - 1/x^2
	for _, x := range []float64{0.4, 2.3, 7.7} {
		approx(t, Trigamma(x+1), Trigamma(x)-1/(x*x), 1e-10, "psi' recurrence")
	}
}

// LogGamma returns log|Γ(x)| (thin wrapper over math.Lgamma that
// discards the sign, which is always +1 for x > 0).
func LogGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

func TestLogGammaMatchesStdlib(t *testing.T) {
	for _, x := range []float64{0.1, 1, 2.5, 10, 100} {
		lg, _ := math.Lgamma(x)
		approx(t, LogGamma(x), lg, 0, "LogGamma")
	}
}
