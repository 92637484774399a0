package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean %v, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("variance %v, want 32/7", v)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev %v", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) ||
		!math.IsNaN(Median(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("degenerate inputs should give NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	if Min(xs) != -9 || Max(xs) != 6 {
		t.Errorf("min/max = %v/%v", Min(xs), Max(xs))
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	}
	for _, c := range cases {
		if q := Quantile(xs, c.p); math.Abs(q-c.want) > 1e-12 {
			t.Errorf("Q(%v) = %v, want %v", c.p, q, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	xs := []float64{7, 2, 9, 4, 4, 11, 0.5}
	f := func(a, b float64) bool {
		p1 := math.Mod(math.Abs(a), 1)
		p2 := math.Mod(math.Abs(b), 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Quantile(xs, p1) <= Quantile(xs, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Median != 3 || s.Mean != 22 {
		t.Errorf("summary %+v", s)
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	xs := []float64{1, 2, 2.5, 3, 3.7, 4, 4, 5, 8, 9.1}
	h, err := NewHistogram(xs, 7)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for i := range h.Counts {
		mass += h.Density(i) * h.BinWidth()
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Errorf("histogram mass %v", mass)
	}
}

func TestHistogramCountsTotal(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	h, _ := NewHistogram(xs, 10)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 100 {
		t.Errorf("histogram lost samples: %d", total)
	}
	for i, c := range h.Counts {
		if c != 10 {
			t.Errorf("bin %d count %d, want 10", i, c)
		}
	}
}

func TestHistogramDegenerateSample(t *testing.T) {
	h, err := NewHistogram([]float64{5, 5, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("degenerate histogram total %d", total)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 5); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("zero bins should error")
	}
}

func TestFreedmanDiaconisBins(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 97)
	}
	b := FreedmanDiaconisBins(xs)
	if b < 5 || b > 200 {
		t.Errorf("FD bins %d out of clamp range", b)
	}
	if FreedmanDiaconisBins([]float64{1}) != 5 {
		t.Error("tiny sample should clamp to 5 bins")
	}
}
