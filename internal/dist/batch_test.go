package dist

import (
	"math"
	"sort"
	"testing"

	"lasvegas/internal/xrand"
)

// TestQuantileBatchMatchesPointwise: the vectorized quantile of every
// BatchQuantiler family must agree bit-for-bit with Dist.Quantile,
// including the p=0 and p=1 edge mappings.
func TestQuantileBatchMatchesPointwise(t *testing.T) {
	ln, err := NewLogNormal(3, 12.0275, 1.3398)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShiftedExponential(1200, 1.0/109000)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExponential(5.4e-9)
	if err != nil {
		t.Fatal(err)
	}
	ps := []float64{0, 1e-12, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-9, 1}
	for _, d := range []Dist{ln, se, ex} {
		bq, ok := d.(BatchQuantiler)
		if !ok {
			t.Fatalf("%s: no QuantileBatch", d)
		}
		dst := make([]float64, len(ps))
		bq.QuantileBatch(ps, dst)
		for i, p := range ps {
			want := d.Quantile(p)
			if dst[i] != want && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
				t.Errorf("%s: QuantileBatch(%g) = %v, Quantile = %v", d, p, dst[i], want)
			}
		}
	}
}

// TestQuantilesFallback: the generic helper must serve families
// without a batched path and must tolerate dst aliasing ps.
func TestQuantilesFallback(t *testing.T) {
	n, err := NewNormal(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps := []float64{0.1, 0.5, 0.9}
	want := make([]float64, len(ps))
	for i, p := range ps {
		want[i] = n.Quantile(p)
	}
	got := make([]float64, len(ps))
	Quantiles(n, ps, got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fallback Quantiles(%g) = %v, want %v", ps[i], got[i], want[i])
		}
	}
	// Aliased: batched family writing into its own input.
	ln, err := NewLogNormal(0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{0.1, 0.5, 0.9}
	Quantiles(ln, buf, buf)
	for i, p := range ps {
		if buf[i] != ln.Quantile(p) {
			t.Errorf("aliased Quantiles(%g) = %v, want %v", p, buf[i], ln.Quantile(p))
		}
	}
}

// TestGammaQuantileBatch: the family that used to be bisection-only
// now carries an initializer-plus-Newton batched quantile. Batched
// must equal pointwise bit for bit, and both must invert the CDF to
// near machine precision across shapes spanning the small-shape,
// near-exponential and large-shape regimes.
func TestGammaQuantileBatch(t *testing.T) {
	ps := []float64{0, 1e-10, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6, 1}
	var laws []Dist
	for _, k := range []float64{0.15, 0.7, 1, 2.5, 40} {
		g, err := NewGamma(k, 1.0/300)
		if err != nil {
			t.Fatal(err)
		}
		laws = append(laws, g)
	}
	for _, d := range laws {
		bq, ok := d.(BatchQuantiler)
		if !ok {
			t.Fatalf("%s: no QuantileBatch", d)
		}
		dst := make([]float64, len(ps))
		bq.QuantileBatch(ps, dst)
		for i, p := range ps {
			want := d.Quantile(p)
			if dst[i] != want && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
				t.Errorf("%s: QuantileBatch(%g) = %v, Quantile = %v", d, p, dst[i], want)
			}
			if p <= 0 || p >= 1 {
				continue
			}
			if back := d.CDF(want); math.Abs(back-p) > 1e-10*(p+1e-12) && math.Abs(back-p) > 1e-13 {
				t.Errorf("%s: CDF(Quantile(%g)) = %v (round-trip error %g)", d, p, back, math.Abs(back-p))
			}
		}
	}
}

// TestGammaQuantileMatchesSampling: the Newton quantile must agree
// with the sampler it feeds — a coarse two-sided check at the
// quartiles over a large fixed-seed sample.
func TestGammaQuantileMatchesSampling(t *testing.T) {
	g, err := NewGamma(2.2, 1.0/150)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(99)
	sample := SampleN(g, r, 60000)
	sort.Float64s(sample)
	for _, p := range []float64{0.25, 0.5, 0.75, 0.95} {
		q := g.Quantile(p)
		emp := sample[int(p*float64(len(sample)))]
		if rel := math.Abs(q-emp) / q; rel > 0.03 {
			t.Errorf("Quantile(%g) = %v vs sampled %v (rel %g)", p, q, emp, rel)
		}
	}
}
