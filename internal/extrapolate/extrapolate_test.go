package extrapolate

import (
	"errors"
	"math"
	"testing"

	"lasvegas/internal/core"
	"lasvegas/internal/dist"
	"lasvegas/internal/fit"
	"lasvegas/internal/xrand"
)

// syntheticExp builds campaigns from shifted exponentials whose scale
// grows exponentially with size — the growth law of local search on
// NP-hard instances the package assumes.
func syntheticExp(t *testing.T, sizes []int, runs int) ([]Observation, func(size int) dist.ShiftedExponential) {
	t.Helper()
	truthAt := func(size int) dist.ShiftedExponential {
		scale := math.Exp(2 + 0.5*float64(size)) // 1/λ
		shift := math.Exp(0.3 * float64(size))
		d, err := dist.NewShiftedExponential(shift, 1/scale)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	obs := make([]Observation, len(sizes))
	for i, s := range sizes {
		obs[i] = Observation{
			Size:   s,
			Sample: dist.SampleN(truthAt(s), xrand.New(uint64(10+s)), runs),
		}
	}
	return obs, truthAt
}

func TestLearnRecoversExponentialTrends(t *testing.T) {
	obs, truthAt := syntheticExp(t, []int{8, 10, 12, 14}, 800)
	m, err := Learn(obs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if m.Family != fit.FamShiftedExponential && m.Family != fit.FamExponential {
		t.Fatalf("family %v", m.Family)
	}
	if len(m.Fits) != 4 {
		t.Fatalf("%d per-size fits", len(m.Fits))
	}
	// Extrapolate two sizes beyond the data and compare the implied
	// mean against the truth.
	const target = 18
	d, err := m.DistAt(target)
	if err != nil {
		t.Fatal(err)
	}
	truth := truthAt(target)
	if math.Abs(d.Mean()-truth.Mean()) > 0.35*truth.Mean() {
		t.Errorf("extrapolated mean %v, truth %v", d.Mean(), truth.Mean())
	}
}

func TestExtrapolatedSpeedupCloseToTruth(t *testing.T) {
	obs, truthAt := syntheticExp(t, []int{8, 10, 12, 14}, 800)
	m, err := Learn(obs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const target = 16
	d, err := m.DistAt(target)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.NewPredictor(d)
	if err != nil {
		t.Fatal(err)
	}
	truthPred, err := core.NewPredictor(truthAt(target))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 64, 256} {
		got, err := pred.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := truthPred.Speedup(n)
		if math.Abs(got-want) > 0.30*want {
			t.Errorf("n=%d: extrapolated G=%v, truth %v", n, got, want)
		}
	}
}

func TestLearnLognormalFamily(t *testing.T) {
	// Lognormal truths with μ linear in size.
	mk := func(size int) dist.LogNormal {
		d, err := dist.NewLogNormal(0, 1+0.8*float64(size), 1.1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	sizes := []int{6, 8, 10}
	obs := make([]Observation, len(sizes))
	for i, s := range sizes {
		obs[i] = Observation{Size: s, Sample: dist.SampleN(mk(s), xrand.New(uint64(30+s)), 900)}
	}
	m, err := Learn(obs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Lognormal data is often also fit by a shifted exponential at
	// finite samples; require only that the learned model's mean at a
	// target size is in the right ballpark.
	const target = 12
	d, err := m.DistAt(target)
	if err != nil {
		t.Fatal(err)
	}
	truth := mk(target)
	ratio := d.Mean() / truth.Mean()
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("extrapolated mean %v vs truth %v (family %v)", d.Mean(), truth.Mean(), m.Family)
	}
}

func TestLearnValidation(t *testing.T) {
	if _, err := Learn(nil, 0.05); err == nil {
		t.Error("no observations accepted")
	}
	if _, err := Learn([]Observation{{Size: 5, Sample: []float64{1, 2}}}, 0.05); err == nil {
		t.Error("single size accepted")
	}
	dup := []Observation{
		{Size: 5, Sample: []float64{1, 2, 3}},
		{Size: 5, Sample: []float64{4, 5, 6}},
	}
	if _, err := Learn(dup, 0.05); err == nil {
		t.Error("duplicate sizes accepted")
	}
}

func TestLearnFailsOnUnstableFamily(t *testing.T) {
	// One size exponential-ish, one size a two-point comb that nothing
	// continuous fits.
	r := xrand.New(50)
	expo, _ := dist.NewExponential(0.01)
	comb := make([]float64, 300)
	for i := range comb {
		comb[i] = float64(i%2)*1000 + 1
	}
	obs := []Observation{
		{Size: 5, Sample: dist.SampleN(expo, r, 300)},
		{Size: 7, Sample: comb},
	}
	if _, err := Learn(obs, 0.05); !errors.Is(err, ErrNoStableFamily) {
		t.Errorf("want ErrNoStableFamily, got %v", err)
	}
}

func TestDistAtValidation(t *testing.T) {
	obs, _ := syntheticExp(t, []int{8, 10}, 400)
	m, err := Learn(obs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DistAt(0); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestMinPValue(t *testing.T) {
	obs, _ := syntheticExp(t, []int{8, 10, 12}, 500)
	m, err := Learn(obs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := m.MinPValue()
	if p < 0.05 || p > 1 {
		t.Errorf("MinPValue %v", p)
	}
}
