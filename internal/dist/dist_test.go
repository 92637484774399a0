package dist_test

import (
	"errors"
	"math"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/quad"
	"lasvegas/internal/xrand"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.12g, want %.12g", msg, got, want)
	}
}

// laws is the cross-check table: every family with finite mean and
// variance, at parameters spanning the paper's regimes.
func laws(t *testing.T) map[string]dist.Dist {
	t.Helper()
	mk := func(d dist.Dist, err error) dist.Dist {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return map[string]dist.Dist{
		"exponential":     mk(dist.NewExponential(1.0 / 1000)),
		"shifted-exp":     mk(dist.NewShiftedExponential(1217, 9.15956e-6)),
		"lognormal":       mk(dist.NewLogNormal(0, 5, 1)),
		"shifted-lognorm": mk(dist.NewLogNormal(6210, 12.0275, 1.3398)),
		"normal":          mk(dist.NewNormal(30, 10)),
		"trunc-normal":    mk(dist.NewTruncatedNormal(30, 10, 0)),
		"gamma":           mk(dist.NewGamma(2.5, 0.4)),
		"weibull":         mk(dist.NewWeibull(1.8, 50)),
	}
}

// TestMeanVarAgainstQuadrature integrates x·f and x²·f numerically
// over the support and compares with the closed forms.
func TestMeanVarAgainstQuadrature(t *testing.T) {
	for name, d := range laws(t) {
		lo, hi := d.Support()
		if math.IsInf(lo, -1) {
			lo = d.Quantile(1e-13)
		}
		moment := func(p float64) float64 {
			f := func(x float64) float64 { return math.Pow(x, p) * d.PDF(x) }
			var v float64
			var err error
			if math.IsInf(hi, 1) {
				v, err = quad.ToInfinity(f, lo, 1e-12)
			} else {
				v, err = quad.TanhSinh(f, lo, hi, 1e-12)
			}
			if err != nil {
				t.Fatalf("%s: moment %v: %v", name, p, err)
			}
			return v
		}
		m1 := moment(1)
		m2 := moment(2)
		approx(t, d.Mean(), m1, 1e-6, name+" mean vs ∫x·f")
		approx(t, d.Var(), m2-m1*m1, 1e-5, name+" var vs ∫x²·f - mean²")
	}
}

// TestQuantileCDFRoundTrip checks Q(CDF) and CDF(Q) across the body
// of each law.
func TestQuantileCDFRoundTrip(t *testing.T) {
	for name, d := range laws(t) {
		for p := 0.01; p < 1; p += 0.0495 {
			x := d.Quantile(p)
			approx(t, d.CDF(x), p, 1e-8, name+" CDF(Q(p))")
		}
	}
}

// TestPDFIsDerivativeOfCDF compares the analytic density against a
// central difference of the CDF at a few interior points.
func TestPDFIsDerivativeOfCDF(t *testing.T) {
	for name, d := range laws(t) {
		for _, p := range []float64{0.2, 0.5, 0.8} {
			x := d.Quantile(p)
			h := 1e-5 * (1 + math.Abs(x))
			numeric := (d.CDF(x+h) - d.CDF(x-h)) / (2 * h)
			approx(t, d.PDF(x), numeric, 1e-4, name+" PDF vs dCDF")
		}
	}
}

// TestSampleMatchesMoments Monte-Carlo validates every sampler
// against the closed-form mean and variance.
func TestSampleMatchesMoments(t *testing.T) {
	const trials = 200000
	for name, d := range laws(t) {
		// Per-law stream: map iteration order is random, so sharing one
		// stream across laws made the heavy-tailed variance checks flaky.
		r := xrand.New(123)
		var sum, sum2 float64
		for i := 0; i < trials; i++ {
			x := d.Sample(r)
			sum += x
			sum2 += x * x
		}
		mean := sum / trials
		vr := sum2/trials - mean*mean
		approx(t, mean, d.Mean(), 0.02, name+" MC mean")
		approx(t, vr, d.Var(), 0.08, name+" MC variance")
	}
}

// TestSampleMatchesCDF validates the samplers in distribution, not
// just in moments: the empirical CDF of a large sample must track the
// analytic CDF at the quartiles.
func TestSampleMatchesCDF(t *testing.T) {
	const trials = 100000
	for name, d := range laws(t) {
		r := xrand.New(321) // per-law stream, independent of map order
		for _, p := range []float64{0.25, 0.5, 0.75} {
			x := d.Quantile(p)
			count := 0
			for i := 0; i < trials; i++ {
				if d.Sample(r) <= x {
					count++
				}
			}
			approx(t, float64(count)/trials, p, 0.02, name+" empirical CDF at Q("+fmtP(p)+")")
		}
	}
}

func fmtP(p float64) string {
	switch p {
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.5"
	}
	return "0.75"
}

// TestShiftedExponentialMinStability: MinDist must be the exact law
// of the minimum — validated against the generic identity on the CDF
// and the paper's closed-form mean.
func TestShiftedExponentialMinStability(t *testing.T) {
	d, _ := dist.NewShiftedExponential(100, 1e-3)
	for _, n := range []int{2, 16, 256, 8192} {
		m := d.MinDist(n)
		approx(t, m.Mean(), 100+1000/float64(n), 1e-12, "min mean closed form")
		for _, x := range []float64{150, 400, 2000} {
			want := 1 - math.Pow(1-d.CDF(x), float64(n))
			approx(t, m.CDF(x), want, 1e-9, "min CDF identity")
		}
	}
}

// TestWeibullMinStability mirrors the exponential check.
func TestWeibullMinStability(t *testing.T) {
	d, _ := dist.NewWeibull(1.8, 50)
	for _, n := range []int{2, 9, 100} {
		m := d.MinDist(n)
		for _, x := range []float64{5, 20, 60} {
			want := 1 - math.Pow(1-d.CDF(x), float64(n))
			approx(t, m.CDF(x), want, 1e-9, "weibull min CDF identity")
		}
	}
}

// TestLevyHasInfiniteMoments: the family the predictor must reject.
func TestLevyHasInfiniteMoments(t *testing.T) {
	d, _ := dist.NewLevy(10, 3)
	if !math.IsInf(d.Mean(), 1) || !math.IsInf(d.Var(), 1) {
		t.Errorf("Lévy moments: mean %v var %v", d.Mean(), d.Var())
	}
	// CDF/Quantile still behave.
	for p := 0.05; p < 1; p += 0.1 {
		approx(t, d.CDF(d.Quantile(p)), p, 1e-9, "levy round trip")
	}
	// MC median vs analytic median (the mean does not exist).
	r := xrand.New(9)
	const trials = 60000
	count := 0
	med := d.Quantile(0.5)
	for i := 0; i < trials; i++ {
		if d.Sample(r) <= med {
			count++
		}
	}
	approx(t, float64(count)/trials, 0.5, 0.02, "levy sampler median")
}

// TestEmpiricalExactness: CDF/Quantile/moments of the plug-in
// distribution against hand-computed values, plus the one-pass
// MinExpectation against brute-force enumeration over index tuples
// (via Monte Carlo with a tight budget — the sample is tiny).
func TestEmpiricalExactness(t *testing.T) {
	sample := []float64{100, 200, 400, 800, 1600, 3200}
	e, err := dist.NewEmpirical(sample)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 6 {
		t.Fatalf("Len %d", e.Len())
	}
	approx(t, e.Mean(), 1050, 1e-12, "empirical mean")
	approx(t, e.CDF(99), 0, 1e-12, "CDF below support")
	approx(t, e.CDF(100), 1.0/6, 1e-12, "CDF at first atom")
	approx(t, e.CDF(250), 2.0/6, 1e-12, "CDF between atoms")
	approx(t, e.CDF(3200), 1, 1e-12, "CDF at max")
	if q := e.Quantile(0.5); q != 400 {
		t.Errorf("median %v, want 400", q)
	}
	if q := e.Quantile(1.0 / 6); q != 100 {
		t.Errorf("Q(1/6) = %v, want 100", q)
	}
	// MinExpectation n=4 against the explicit atom-mass formula.
	m := 6.0
	var want float64
	for i, x := range sample {
		hi := math.Pow((m-float64(i))/m, 4)
		lo := math.Pow((m-float64(i)-1)/m, 4)
		want += x * (hi - lo)
	}
	approx(t, e.MinExpectation(4), want, 1e-12, "MinExpectation n=4")
	approx(t, e.MinExpectation(1), e.Mean(), 1e-12, "MinExpectation n=1")
	// MinSample agrees with MinExpectation in the mean.
	r := xrand.New(5)
	const trials = 120000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += e.MinSample(4, r)
	}
	approx(t, sum/trials, want, 0.02, "MinSample vs MinExpectation")
}

// TestEmpiricalTies: atoms with multiplicity keep CDF and
// MinExpectation exact.
func TestEmpiricalTies(t *testing.T) {
	e, err := dist.NewEmpirical([]float64{5, 5, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, e.CDF(5), 0.75, 1e-12, "tied CDF")
	// min of 2: P(both are 10) = 1/16 → E = 5·15/16 + 10/16.
	approx(t, e.MinExpectation(2), 5*15.0/16+10.0/16, 1e-12, "tied MinExpectation")
}

// TestEmpiricalECDF: with a tie in the middle of the sample the CDF is
// the plain ECDF, #(samples ≤ x)/n — every tied observation counts at
// the atom and none just below it.
func TestEmpiricalECDF(t *testing.T) {
	e, err := dist.NewEmpirical([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	} {
		if f := e.CDF(c.x); f != c.want {
			t.Errorf("F(%v) = %v, want %v", c.x, f, c.want)
		}
	}
	if e.Len() != 4 {
		t.Errorf("Len %d, want 4", e.Len())
	}
}

// TestValidationRejectsBadParameters sweeps every constructor.
func TestValidationRejectsBadParameters(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"exp rate 0", errOf(dist.NewExponential(0))},
		{"exp rate -1", errOf(dist.NewExponential(-1))},
		{"shifted-exp neg shift", errOf(dist.NewShiftedExponential(-1, 1))},
		{"lognormal sigma 0", errOf(dist.NewLogNormal(0, 1, 0))},
		{"lognormal neg shift", errOf(dist.NewLogNormal(-5, 1, 1))},
		{"normal sigma 0", errOf(dist.NewNormal(0, 0))},
		{"gamma shape 0", errOf(dist.NewGamma(0, 1))},
		{"gamma rate 0", errOf(dist.NewGamma(1, 0))},
		{"weibull shape 0", errOf(dist.NewWeibull(0, 1))},
		{"levy scale 0", errOf(dist.NewLevy(0, 0))},
		{"trunc-normal all mass cut", errOf(dist.NewTruncatedNormal(0, 1, 1e9))},
		{"empirical empty", errOf2(dist.NewEmpirical(nil))},
		{"empirical NaN", errOf2(dist.NewEmpirical([]float64{1, math.NaN()}))},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(c.err, dist.ErrParam) {
			t.Errorf("%s: error %v does not wrap ErrParam", c.name, c.err)
		}
	}
}

func errOf[D dist.Dist](_ D, err error) error { return err }
func errOf2(_ *dist.Step, err error) error    { return err }

// TestSampleN draws the requested count.
func TestSampleN(t *testing.T) {
	d, _ := dist.NewExponential(1)
	xs := dist.SampleN(d, xrand.New(1), 37)
	if len(xs) != 37 {
		t.Fatalf("SampleN returned %d draws", len(xs))
	}
	for _, x := range xs {
		if !(x > 0) {
			t.Fatalf("non-positive exponential draw %v", x)
		}
	}
}

// TestStringsNonEmpty: every law renders its parameters.
func TestStringsNonEmpty(t *testing.T) {
	for name, d := range laws(t) {
		if d.String() == "" {
			t.Errorf("%s: empty String()", name)
		}
	}
	e, _ := dist.NewEmpirical([]float64{1, 2})
	if e.String() == "" {
		t.Error("empirical: empty String()")
	}
}

// BenchmarkQuantileHotPath times the quantile evaluations the
// order-statistic integrals hammer.
func BenchmarkQuantileHotPath(b *testing.B) {
	se, _ := dist.NewShiftedExponential(1217, 9.15956e-6)
	ln, _ := dist.NewLogNormal(6210, 12.0275, 1.3398)
	b.Run("shifted-exp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = se.Quantile(float64(i%1000)/1000 + 0.0005)
		}
	})
	b.Run("lognormal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ln.Quantile(float64(i%1000)/1000 + 0.0005)
		}
	})
}

// BenchmarkEmpiricalMinExpectation times the plug-in closed form on a
// paper-sized sample across the paper's core grid.
func BenchmarkEmpiricalMinExpectation(b *testing.B) {
	d, _ := dist.NewShiftedExponential(1217, 9.15956e-6)
	e, err := dist.NewEmpirical(dist.SampleN(d, xrand.New(1), 650))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{16, 32, 64, 128, 256} {
			_ = e.MinExpectation(n)
		}
	}
}
