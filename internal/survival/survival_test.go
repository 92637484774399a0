package survival

import (
	"math"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// censorAt clips a complete sample at cutoff c, returning the
// censored values and flags — the Type-I (budget) censoring pattern
// lvseq -maxiter produces.
func censorAt(sample []float64, c float64) (values []float64, flags []bool) {
	values = make([]float64, len(sample))
	flags = make([]bool, len(sample))
	for i, x := range sample {
		if x > c {
			values[i], flags[i] = c, true
		} else {
			values[i] = x
		}
	}
	return values, flags
}

// TestKMMatchesEmpiricalUncensored: on a censoring-free sample the
// product-limit estimator must reproduce dist.NewEmpirical bit for bit
// — CDF, Quantile, Mean, Var, Sample, MinSample and the exact
// MinExpectation and TruncatedMean (cutoffs below the minimum, on
// atoms, between atoms and above the maximum). This
// is the acceptance contract that lets the plug-in predictor switch
// estimators based on censoring without changing any complete-sample
// result.
func TestKMMatchesEmpiricalUncensored(t *testing.T) {
	r := xrand.New(7)
	base, err := dist.NewLogNormal(0, 6, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	sample := dist.SampleN(base, r, 257)
	// Inject ties: runtimes are iteration counts in practice.
	for i := range sample {
		sample[i] = math.Round(sample[i]/50) * 50
	}
	km, err := NewKaplanMeier(sample, make([]bool, len(sample)))
	if err != nil {
		t.Fatal(err)
	}
	emp, err := dist.NewEmpirical(sample)
	if err != nil {
		t.Fatal(err)
	}
	if km.Mean() != emp.Mean() || km.Var() != emp.Var() {
		t.Fatalf("moments differ: KM (%v, %v) vs Empirical (%v, %v)",
			km.Mean(), km.Var(), emp.Mean(), emp.Var())
	}
	for _, x := range []float64{-1, 0, sample[0], 100, 333, 1e4, 1e7} {
		if got, want := km.CDF(x), emp.CDF(x); got != want {
			t.Errorf("CDF(%v): KM %v vs Empirical %v", x, got, want)
		}
		if got, want := km.TruncatedMean(x), emp.TruncatedMean(x); got != want {
			t.Errorf("TruncatedMean(%v): KM %v vs Empirical %v", x, got, want)
		}
	}
	for p := 0.0; p <= 1.0; p += 0.001 {
		if got, want := km.Quantile(p), emp.Quantile(p); got != want {
			t.Errorf("Quantile(%v): KM %v vs Empirical %v", p, got, want)
		}
	}
	for _, n := range []int{1, 2, 3, 16, 256, 8192} {
		if got, want := km.MinExpectation(n), emp.MinExpectation(n); got != want {
			t.Errorf("MinExpectation(%d): KM %v vs Empirical %v", n, got, want)
		}
	}
	r1, r2 := xrand.New(11), xrand.New(11)
	for i := 0; i < 100; i++ {
		if got, want := km.Sample(r1), emp.Sample(r2); got != want {
			t.Fatalf("Sample %d: KM %v vs Empirical %v", i, got, want)
		}
		if got, want := km.MinSample(16, r1), emp.MinSample(16, r2); got != want {
			t.Fatalf("MinSample %d: KM %v vs Empirical %v", i, got, want)
		}
	}
}

// TestKMHandExample verifies the estimator against the textbook
// example 1, 2+, 3, 4+, 5 (+ marks a censoring): Ŝ = 4/5 after t=1,
// unchanged by the censoring at 2, 4/5·2/3 = 8/15 after t=3,
// unchanged at 4+, and 0 after the final event.
func TestKMHandExample(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5}
	flags := []bool{false, true, false, true, false}
	km, err := NewKaplanMeier(values, flags)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-15
	checks := []struct{ x, want float64 }{
		{0.5, 0},
		{1, 1 - 4.0/5},
		{2.5, 1 - 4.0/5},
		{3, 1 - 8.0/15},
		{4.9, 1 - 8.0/15},
		{5, 1},
		{99, 1},
	}
	for _, c := range checks {
		if got := km.CDF(c.x); math.Abs(got-c.want) > tol {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if km.Len() != 5 || km.CensoredCount() != 2 {
		t.Errorf("counts: observations=%d censored=%d", km.Len(), km.CensoredCount())
	}
	// Quantile is the left-continuous inverse: the smallest x with
	// F̂(x) ≥ p, which is always an event time (or the terminal step).
	if got := km.Quantile(0.1); got != 1 {
		t.Errorf("Quantile(0.1) = %v, want 1", got)
	}
	if got := km.Quantile(0.3); got != 3 {
		t.Errorf("Quantile(0.3) = %v, want 3", got)
	}
	if got := km.Quantile(0.99); got != 5 {
		t.Errorf("Quantile(0.99) = %v, want 5", got)
	}
	// Mean = Σ x·ΔF̂ = 1·(1/5) + 3·(4/5 − 8/15) + 5·(8/15).
	wantMean := 1.0/5 + 3*(4.0/5-8.0/15) + 5*8.0/15
	if math.Abs(km.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", km.Mean(), wantMean)
	}
	// MinExpectation(n) = Σ x·(Ŝ₋ⁿ − Ŝⁿ) against an independent
	// evaluation over the three mass points.
	for _, n := range []int{2, 5, 40} {
		nf := float64(n)
		s1, s2 := 4.0/5, 8.0/15
		want := 1*(1-math.Pow(s1, nf)) +
			3*(math.Pow(s1, nf)-math.Pow(s2, nf)) +
			5*math.Pow(s2, nf)
		if got := km.MinExpectation(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("MinExpectation(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestKMEfronTail: when the largest observation is censored the
// leftover mass is dropped at that observation, so the law stays
// proper and the restricted mean is finite.
func TestKMEfronTail(t *testing.T) {
	values := []float64{1, 2, 5, 5}
	flags := []bool{false, false, true, true}
	km, err := NewKaplanMeier(values, flags)
	if err != nil {
		t.Fatal(err)
	}
	if got := 1 - km.CDF(4.9); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("survival before the Efron point = %v, want 0.5", got)
	}
	if got := km.CDF(5); got != 1 {
		t.Errorf("CDF at the Efron point = %v, want 1", got)
	}
	wantMean := 1*0.25 + 2*0.25 + 5*0.5
	if math.Abs(km.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", km.Mean(), wantMean)
	}
}

// TestKMTypeICensoring: under a fixed budget every censoring sits at
// the budget, after all events — so on the event region the
// product-limit estimate collapses to the plain ECDF of the full
// sample, exactly.
func TestKMTypeICensoring(t *testing.T) {
	r := xrand.New(3)
	base, err := dist.NewExponential(1.0 / 500)
	if err != nil {
		t.Fatal(err)
	}
	sample := dist.SampleN(base, r, 400)
	budget := base.Quantile(0.75)
	values, flags := censorAt(sample, budget)
	km, err := NewKaplanMeier(values, flags)
	if err != nil {
		t.Fatal(err)
	}
	m := float64(len(sample))
	for _, x := range []float64{1, 50, 200, 500, budget * 0.99} {
		count := 0
		for _, v := range sample {
			if v <= x {
				count++
			}
		}
		if got, want := km.CDF(x), float64(count)/m; got != want {
			t.Errorf("CDF(%v) = %v, want ECDF %v", x, got, want)
		}
	}
}

// TestAllCensored: a sample with no events cannot anchor any
// estimate.
func TestAllCensored(t *testing.T) {
	values := []float64{10, 10, 10}
	flags := []bool{true, true, true}
	if _, err := NewKaplanMeier(values, flags); err == nil {
		t.Error("KaplanMeier accepted an all-censored sample")
	}
	if _, err := Auto(values, flags, 10); err == nil {
		t.Error("Auto accepted an all-censored sample")
	}
}

// TestCensoredMLEReducesToComplete: with no censoring the closed-form
// censored estimators must agree with the classic complete-sample
// formulas.
func TestCensoredMLEReducesToComplete(t *testing.T) {
	r := xrand.New(5)
	base, err := dist.NewShiftedExponential(100, 1.0/900)
	if err != nil {
		t.Fatal(err)
	}
	sample := dist.SampleN(base, r, 300)
	flags := make([]bool, len(sample))

	var sum, min float64
	min = math.Inf(1)
	for _, x := range sample {
		sum += x
		if x < min {
			min = x
		}
	}
	mean := sum / float64(len(sample))

	exp, err := Exponential(sample, flags)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(exp.Rate-1/mean) / (1 / mean); rel > 1e-12 {
		t.Errorf("complete-sample exponential rate %v, want 1/mean %v", exp.Rate, 1/mean)
	}
	se, err := ShiftedExponential(sample, flags)
	if err != nil {
		t.Fatal(err)
	}
	if se.Shift != min {
		t.Errorf("shift %v, want observed min %v", se.Shift, min)
	}
	if rel := math.Abs(se.Rate-1/(mean-min)) * (mean - min); rel > 1e-12 {
		t.Errorf("rate %v, want 1/(mean-x0) %v", se.Rate, 1/(mean-min))
	}
}

// TestCensoredMLERecovery: each censored estimator must recover the
// true parameters from a heavily budget-censored synthetic sample —
// the case the naive "fit the clipped values" approach gets badly
// wrong (it biases every scale estimate toward the budget).
func TestCensoredMLERecovery(t *testing.T) {
	const n = 4000
	relErr := func(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

	t.Run("exponential", func(t *testing.T) {
		base, _ := dist.NewExponential(1.0 / 1000)
		sample := dist.SampleN(base, xrand.New(101), n)
		budget := base.Quantile(0.7)
		values, flags := censorAt(sample, budget)
		d, err := Exponential(values, flags)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(d.Rate, 1.0/1000); e > 0.05 {
			t.Errorf("rate %v, want ≈ 1/1000 (rel err %.3f)", d.Rate, e)
		}
	})

	t.Run("shifted-exponential", func(t *testing.T) {
		base, _ := dist.NewShiftedExponential(200, 1.0/800)
		sample := dist.SampleN(base, xrand.New(102), n)
		budget := base.Quantile(0.7)
		values, flags := censorAt(sample, budget)
		d, err := ShiftedExponential(values, flags)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(d.Shift, 200); e > 0.05 {
			t.Errorf("shift %v, want ≈ 200 (rel err %.3f)", d.Shift, e)
		}
		if e := relErr(d.Rate, 1.0/800); e > 0.05 {
			t.Errorf("rate %v, want ≈ 1/800 (rel err %.3f)", d.Rate, e)
		}
	})

	t.Run("weibull", func(t *testing.T) {
		base, _ := dist.NewWeibull(1.7, 900)
		sample := dist.SampleN(base, xrand.New(103), n)
		budget := base.Quantile(0.7)
		values, flags := censorAt(sample, budget)
		d, err := Weibull(values, flags)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(d.Shape, 1.7); e > 0.06 {
			t.Errorf("shape %v, want ≈ 1.7 (rel err %.3f)", d.Shape, e)
		}
		if e := relErr(d.Scale, 900); e > 0.06 {
			t.Errorf("scale %v, want ≈ 900 (rel err %.3f)", d.Scale, e)
		}
	})

	t.Run("lognormal", func(t *testing.T) {
		base, _ := dist.NewLogNormal(0, 6, 1.2)
		sample := dist.SampleN(base, xrand.New(104), n)
		budget := base.Quantile(0.7)
		values, flags := censorAt(sample, budget)
		d, err := LogNormal(values, flags)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(d.Mu - 6); e > 0.15 {
			t.Errorf("μ %v, want ≈ 6 (abs err %.3f)", d.Mu, e)
		}
		if e := relErr(d.Sigma, 1.2); e > 0.08 {
			t.Errorf("σ %v, want ≈ 1.2 (rel err %.3f)", d.Sigma, e)
		}
	})
}

// TestNaiveFitIsBiased documents *why* this package exists: treating
// the clipped values as events underestimates the exponential mean
// badly, while the censored MLE stays on target.
func TestNaiveFitIsBiased(t *testing.T) {
	base, _ := dist.NewExponential(1.0 / 1000)
	sample := dist.SampleN(base, xrand.New(21), 4000)
	budget := base.Quantile(0.6)
	values, flags := censorAt(sample, budget)

	var naiveSum float64
	for _, x := range values {
		naiveSum += x
	}
	naiveRate := float64(len(values)) / naiveSum
	d, err := Exponential(values, flags)
	if err != nil {
		t.Fatal(err)
	}
	trueRate := 1.0 / 1000
	if math.Abs(naiveRate-trueRate) < 2*math.Abs(d.Rate-trueRate) {
		t.Errorf("naive rate %v should be far worse than censored MLE %v (truth %v)",
			naiveRate, d.Rate, trueRate)
	}
}

// TestAutoRanking: on a censored exponential sample Auto must fit the
// supported families, rank by censored log-likelihood, attach
// restricted KS verdicts and keep the exponential near the top.
func TestAutoRanking(t *testing.T) {
	base, _ := dist.NewExponential(1.0 / 700)
	sample := dist.SampleN(base, xrand.New(31), 800)
	budget := base.Quantile(0.75)
	values, flags := censorAt(sample, budget)

	results, err := Auto(values, flags, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Families()) {
		t.Fatalf("got %d results, want %d", len(results), len(Families()))
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Err == nil && results[i].Err == nil &&
			results[i-1].LogLik < results[i].LogLik {
			t.Errorf("results not ranked by log-likelihood: %v < %v at %d",
				results[i-1].LogLik, results[i].LogLik, i)
		}
	}
	best, err := Best(values, flags, budget, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if best.Family != FamExponential && best.Family != FamWeibull && best.Family != FamShiftedExponential {
		t.Errorf("best family %s for an exponential truth", best.Family)
	}
	if best.KS.N == 0 || best.KS.PValue < 0.05 {
		t.Errorf("restricted KS verdict missing or rejecting the truth: %+v", best.KS)
	}
	// An unknown family must fail per-candidate, not poison the run.
	results, err = Auto(values, flags, budget, FamExponential, Family("levy"))
	if err != nil {
		t.Fatal(err)
	}
	if results[len(results)-1].Err == nil {
		t.Error("unsupported family did not report an error")
	}
}

// TestRestrictedKSCompleteSample: without censoring the restricted
// test is the ordinary one-sample KS against the unconditioned law.
func TestRestrictedKSCompleteSample(t *testing.T) {
	base, _ := dist.NewExponential(1.0 / 300)
	sample := dist.SampleN(base, xrand.New(41), 500)
	flags := make([]bool, len(sample))
	res, err := RestrictedKS(base, sample, flags, Cutoff(sample, flags, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != len(sample) {
		t.Errorf("restricted KS saw %d observations, want %d", res.N, len(sample))
	}
	if res.PValue < 0.05 {
		t.Errorf("KS rejects the true law: %+v", res)
	}
}
