package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.10g, want %.10g", msg, got, want)
	}
}

// TestPaperTable5AI700 reproduces the paper's predicted speed-up row
// for ALL-INTERVAL 700 from the paper's fitted parameters
// (x0 = 1217, λ = 9.15956e-6): 13.7, 23.8, 37.8, 53.3, 67.2.
func TestPaperTable5AI700(t *testing.T) {
	d, err := dist.NewShiftedExponential(1217, 9.15956e-6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(d)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{16: 13.7, 32: 23.8, 64: 37.8, 128: 53.3, 256: 67.2}
	for n, w := range want {
		g, err := p.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, g, w, 0.005, "AI 700 speed-up")
	}
	// §6.1: the limit of the speed-up is 90.7087.
	approx(t, p.Limit(), 90.7087, 1e-4, "AI 700 limit")
}

// TestPaperTable5MS200 reproduces the predicted row for MAGIC-SQUARE
// 200 from the paper's fitted shifted lognormal (x0 = 6210,
// μ = 12.0275, σ = 1.3398): 15.94, 22.04, 28.28, 34.26, 39.7.
func TestPaperTable5MS200(t *testing.T) {
	d, err := dist.NewLogNormal(6210, 12.0275, 1.3398)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(d)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{16: 15.94, 32: 22.04, 64: 28.28, 128: 34.26, 256: 39.7}
	for n, w := range want {
		g, err := p.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, g, w, 0.002, "MS 200 speed-up")
	}
}

// TestPaperTable5Costas21 reproduces the exactly linear predicted row
// for COSTAS 21 (unshifted exponential).
func TestPaperTable5Costas21(t *testing.T) {
	d, err := dist.NewExponential(5.4e-9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 32, 64, 128, 256, 512, 8192} {
		g, err := p.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, g, float64(n), 1e-9, "Costas linear speed-up")
	}
	if !p.Linear() {
		t.Error("unshifted exponential should report Linear()")
	}
	if !math.IsInf(p.Limit(), 1) {
		t.Error("x0=0 limit should be +Inf")
	}
}

func TestSpeedupAtOneCore(t *testing.T) {
	d, _ := dist.NewLogNormal(10, 3, 1)
	p, _ := NewPredictor(d)
	g, err := p.Speedup(1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, g, 1, 1e-12, "G(1) = 1")
}

func TestSpeedupMonotoneProperty(t *testing.T) {
	d, _ := dist.NewShiftedExponential(100, 1e-3)
	p, _ := NewPredictor(d)
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw%2000) + 1
		b := int(bRaw%2000) + 1
		if a > b {
			a, b = b, a
		}
		ga, err1 := p.Speedup(a)
		gb, err2 := p.Speedup(b)
		return err1 == nil && err2 == nil && ga <= gb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupBoundedByCores(t *testing.T) {
	// For any x0 > 0, G(n) < n strictly (sub-linear case).
	d, _ := dist.NewShiftedExponential(500, 1e-4)
	p, _ := NewPredictor(d)
	for _, n := range []int{2, 16, 256, 4096} {
		g, err := p.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		if g >= float64(n) {
			t.Errorf("G(%d) = %v ≥ n for shifted law", n, g)
		}
	}
}

func TestTangentAtOrigin(t *testing.T) {
	// §3.3: tangent = x0·λ + 1.
	d, _ := dist.NewShiftedExponential(100, 1.0/1000)
	p, _ := NewPredictor(d)
	approx(t, p.TangentAtOrigin(), 1.1, 1e-12, "exponential tangent")

	// Generic path (lognormal) should give a positive finite slope.
	ln, _ := dist.NewLogNormal(0, 5, 1)
	pl, _ := NewPredictor(ln)
	tan := pl.TangentAtOrigin()
	if !(tan > 0) || math.IsInf(tan, 0) {
		t.Errorf("lognormal tangent %v", tan)
	}
}

func TestLimitShiftedLognormal(t *testing.T) {
	// §6.2: MS 200 limit ≈ E[Y]/x0 ≈ 67 ("about 71.5" with the paper's
	// own rounding of E[Y]; we verify our own identity instead).
	d, _ := dist.NewLogNormal(6210, 12.0275, 1.3398)
	p, _ := NewPredictor(d)
	approx(t, p.Limit(), p.SequentialMean()/6210, 1e-12, "limit identity")
}

func TestEmpiricalPredictorPlugIn(t *testing.T) {
	// Plug-in prediction from raw samples of a known exponential must
	// approach the analytic speed-up.
	truth, _ := dist.NewShiftedExponential(100, 1e-3)
	r := xrand.New(42)
	sample := dist.SampleN(truth, r, 5000)
	pe, err := NewEmpirical(sample)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := NewPredictor(truth)
	for _, n := range []int{2, 16, 64} {
		ge, err := pe.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		ga, _ := pa.Speedup(n)
		if math.Abs(ge-ga) > 0.12*ga {
			t.Errorf("n=%d: plug-in %v vs analytic %v", n, ge, ga)
		}
	}
}

func TestParallelMeanClosedForm(t *testing.T) {
	d, _ := dist.NewShiftedExponential(100, 1.0/1000)
	p, _ := NewPredictor(d)
	for _, n := range []int{1, 2, 8, 64} {
		got, err := p.ParallelMean(n)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, got, 100+1000/float64(n), 1e-12, "E[Z(n)] closed form")
	}
}

func TestMinDistClosedFormFamilies(t *testing.T) {
	se, _ := dist.NewShiftedExponential(10, 0.1)
	p, _ := NewPredictor(se)
	md, err := p.MinDist(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := md.(dist.ShiftedExponential); !ok {
		t.Errorf("exponential MinDist is %T, want closed form", md)
	}

	wb, _ := dist.NewWeibull(2, 5)
	pw, _ := NewPredictor(wb)
	mdw, err := pw.MinDist(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mdw.(dist.Weibull); !ok {
		t.Errorf("weibull MinDist is %T, want closed form", mdw)
	}

	ln, _ := dist.NewLogNormal(0, 1, 1)
	pl, _ := NewPredictor(ln)
	mdl, err := pl.MinDist(3)
	if err != nil {
		t.Fatal(err)
	}
	// Generic min: CDF identity check.
	want := 1 - math.Pow(1-ln.CDF(3), 3)
	approx(t, mdl.CDF(3), want, 1e-10, "generic MinDist CDF")
}

func TestEfficiencyDecreases(t *testing.T) {
	d, _ := dist.NewShiftedExponential(100, 1e-3)
	p, _ := NewPredictor(d)
	prev := 2.0
	for _, n := range []int{1, 4, 16, 64, 256} {
		e, err := p.Efficiency(n)
		if err != nil {
			t.Fatal(err)
		}
		if e > prev+1e-12 {
			t.Errorf("efficiency increased at n=%d", n)
		}
		if e <= 0 || e > 1+1e-12 {
			t.Errorf("efficiency out of range at n=%d: %v", n, e)
		}
		prev = e
	}
}

func TestCoresForSpeedup(t *testing.T) {
	d, _ := dist.NewShiftedExponential(1217, 9.15956e-6)
	p, _ := NewPredictor(d)
	n, err := p.CoresForSpeedup(50)
	if err != nil {
		t.Fatal(err)
	}
	gPrev, _ := p.Speedup(n - 1)
	gAt, _ := p.Speedup(n)
	if gAt < 50 || gPrev >= 50 {
		t.Errorf("CoresForSpeedup(50) = %d (G(n-1)=%v, G(n)=%v)", n, gPrev, gAt)
	}
	// Target beyond the limit (90.7) must fail.
	if _, err := p.CoresForSpeedup(95); err == nil {
		t.Error("target beyond the limit accepted")
	}
	// Trivial target.
	if n, _ := p.CoresForSpeedup(1); n != 1 {
		t.Error("target 1 should need 1 core")
	}
}

// TestCoresForSpeedupNonFiniteTarget: NaN and +Inf targets fail up
// front, on a law with a finite limit and on one whose limit is
// infinite, where no limit check can catch +Inf.
func TestCoresForSpeedupNonFiniteTarget(t *testing.T) {
	shifted, _ := dist.NewShiftedExponential(1217, 9.15956e-6)
	linear, _ := dist.NewExponential(5.4e-9)
	for _, d := range []dist.Dist{shifted, linear} {
		p, err := NewPredictor(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []float64{math.NaN(), math.Inf(1)} {
			_, err := p.CoresForSpeedup(target)
			if err == nil || !strings.Contains(err.Error(), "not a finite number") {
				t.Errorf("%v: CoresForSpeedup(%v) = %v, want a non-finite target error", d, target, err)
			}
		}
	}
}

func TestPredictorRejectsInfiniteMean(t *testing.T) {
	levy, _ := dist.NewLevy(0, 1)
	if _, err := NewPredictor(levy); err == nil {
		t.Error("Lévy (infinite mean) accepted by predictor")
	}
	if _, err := NewPredictor(nil); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestPredictorRejectsBadCores(t *testing.T) {
	d, _ := dist.NewExponential(1)
	p, _ := NewPredictor(d)
	if _, err := p.Speedup(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := p.ParallelMean(-3); err == nil {
		t.Error("negative cores accepted")
	}
}

func TestNewEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("empty sample accepted")
	}
}

// TestSpeedupInfiniteWhenParallelMeanNotPositive reaches the E[Z(n)] ≤ 0
// branch from both sides: a plug-in law with an atom at 0 whose
// E[Z(n)] = 10·2⁻ⁿ underflows to exactly 0, and a gaussian fit whose
// E[Z(n)] falls below 0 once the minimum of n draws leaves the
// positive half-line. Both report +Inf, never a division by 0 or a
// negative speed-up.
func TestSpeedupInfiniteWhenParallelMeanNotPositive(t *testing.T) {
	atom, err := NewEmpirical([]float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	gauss, _ := dist.NewNormal(1, 1)
	normal, err := NewPredictor(gauss)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *Predictor
		n    int
	}{{"atom at 0", atom, 2000}, {"gaussian", normal, 16}} {
		ez, err := c.p.ParallelMean(c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ez > 0 {
			t.Fatalf("%s: E[Z(%d)] = %v, want ≤ 0", c.name, c.n, ez)
		}
		g, err := c.p.Speedup(c.n)
		if err != nil || !math.IsInf(g, 1) {
			t.Errorf("%s: G(%d) = %v, %v; want +Inf", c.name, c.n, g, err)
		}
		if got := c.p.SpeedupFor(ez); !math.IsInf(got, 1) {
			t.Errorf("%s: SpeedupFor(%v) = %v, want +Inf", c.name, ez, got)
		}
	}
}
