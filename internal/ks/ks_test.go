package ks

import (
	"math"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

func TestKolmogorovQKnownValues(t *testing.T) {
	// Classical table values of the Kolmogorov survival function.
	cases := []struct{ t, q float64 }{
		{1.2238, 0.10},  // 90% critical point
		{1.3581, 0.05},  // 95%
		{1.6276, 0.01},  // 99%
		{1.0727, 0.20},  // 80%
		{0.82757, 0.50}, // median
	}
	for _, c := range cases {
		got := kolmogorovQ(c.t)
		if math.Abs(got-c.q) > 2e-4 {
			t.Errorf("Q(%v) = %v, want %v", c.t, got, c.q)
		}
	}
}

func TestKolmogorovQEdges(t *testing.T) {
	if kolmogorovQ(0) != 1 || kolmogorovQ(-1) != 1 {
		t.Error("Q at non-positive t should be 1")
	}
	if q := kolmogorovQ(10); q > 1e-20 {
		t.Errorf("Q(10) = %v, want ≈0", q)
	}
	// Continuity across the series switch at t = 1.18.
	lo, hi := kolmogorovQ(1.1799999), kolmogorovQ(1.1800001)
	if math.Abs(lo-hi) > 1e-6 {
		t.Errorf("discontinuity at series switch: %v vs %v", lo, hi)
	}
}

func TestOneSampleAcceptsTrueDistribution(t *testing.T) {
	d, _ := dist.NewShiftedExponential(50, 0.01)
	r := xrand.New(99)
	sample := dist.SampleN(d, r, 650)
	res, err := OneSample(sample, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectAt(0.05) {
		t.Errorf("true distribution rejected: D=%v p=%v", res.D, res.PValue)
	}
	if res.N != 650 {
		t.Errorf("N = %d", res.N)
	}
}

func TestOneSampleRejectsWrongDistribution(t *testing.T) {
	// Sample from lognormal, test against an exponential with the same
	// mean — must be rejected with hundreds of observations.
	ln, _ := dist.NewLogNormal(0, 5, 1.5)
	r := xrand.New(5)
	sample := dist.SampleN(ln, r, 650)
	var mean float64
	for _, x := range sample {
		mean += x
	}
	mean /= float64(len(sample))
	exp, _ := dist.NewExponential(1 / mean)
	res, err := OneSample(sample, exp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt(0.05) {
		t.Errorf("wrong distribution accepted: D=%v p=%v", res.D, res.PValue)
	}
}

func TestOneSampleEmpty(t *testing.T) {
	d, _ := dist.NewExponential(1)
	if _, err := OneSample(nil, d); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestOneSampleExactSmallCase(t *testing.T) {
	// Single observation at the median of U(0,1): D = 0.5 exactly.
	u := uniform{lo: 0, hi: 1}
	res, err := OneSample([]float64{0.5}, u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.D-0.5) > 1e-12 {
		t.Errorf("D = %v, want 0.5", res.D)
	}
}

func TestTwoSampleSameDistribution(t *testing.T) {
	d, _ := dist.NewWeibull(1.5, 10)
	r := xrand.New(11)
	xs := dist.SampleN(d, r, 800)
	ys := dist.SampleN(d, r, 900)
	res, err := TwoSample(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectAt(0.01) {
		t.Errorf("same-law samples rejected: D=%v p=%v", res.D, res.PValue)
	}
}

func TestTwoSampleDifferentDistributions(t *testing.T) {
	d1, _ := dist.NewExponential(1)
	d2, _ := dist.NewExponential(0.5) // double the mean
	r := xrand.New(12)
	xs := dist.SampleN(d1, r, 800)
	ys := dist.SampleN(d2, r, 800)
	res, err := TwoSample(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt(0.01) {
		t.Errorf("different laws accepted: D=%v p=%v", res.D, res.PValue)
	}
}

func TestTwoSampleEmpty(t *testing.T) {
	if _, err := TwoSample(nil, []float64{1}); err == nil {
		t.Error("empty first sample accepted")
	}
	if _, err := TwoSample([]float64{1}, nil); err == nil {
		t.Error("empty second sample accepted")
	}
}

func TestPValueMonotoneInD(t *testing.T) {
	prev := 1.0
	for d := 0.01; d < 0.5; d += 0.01 {
		p := PValue(d, 650)
		if p > prev+1e-12 {
			t.Fatalf("p-value not decreasing at D=%v", d)
		}
		prev = p
	}
}

func TestPValueEdgeCases(t *testing.T) {
	if PValue(0, 100) != 1 {
		t.Error("D=0 should give p=1")
	}
	if PValue(1, 100) != 0 {
		t.Error("D=1 should give p=0")
	}
	if PValue(0.5, 0) != 1 {
		t.Error("n=0 should give p=1")
	}
}

func TestPaperScaleAcceptance(t *testing.T) {
	// Emulate the paper's AI 700 test: 720 observations from the fitted
	// shifted exponential must be accepted with a healthy p-value.
	d, _ := dist.NewShiftedExponential(1217, 9.15956e-6)
	r := xrand.New(700)
	sample := dist.SampleN(d, r, 720)
	res, err := OneSample(sample, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.05 {
		t.Errorf("paper-scale sample rejected against own law: p=%v", res.PValue)
	}
}
