package fit_test

// Model selection — fit every candidate family, rank the fits by KS
// p-value and keep the best accepted one (§6) — is
// lasvegas.Predictor.FitAll and Fit over this package's Table. These
// tests drive it on samples drawn from known laws.

import (
	"errors"
	"testing"

	"lasvegas"
	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// wideFamilies is the paper's accepted trio plus the gaussian and
// Lévy it reports rejecting.
var wideFamilies = []lasvegas.Family{
	lasvegas.Exponential, lasvegas.ShiftedExponential, lasvegas.LogNormal, lasvegas.Normal, lasvegas.Levy,
}

// campaign wraps n draws from d as a complete campaign.
func campaign(d dist.Dist, n int, seed uint64) *lasvegas.Campaign {
	return &lasvegas.Campaign{Problem: "synthetic", Runs: n, Iterations: dist.SampleN(d, xrand.New(seed), n)}
}

func fitAll(t *testing.T, c *lasvegas.Campaign, fams ...lasvegas.Family) []lasvegas.Candidate {
	t.Helper()
	cands, err := lasvegas.New(lasvegas.WithFamilies(fams...)).FitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func TestAutoPrefersTrueFamilyExponential(t *testing.T) {
	truth, _ := dist.NewShiftedExponential(1000, 1e-4)
	best := fitAll(t, campaign(truth, 650, 9), wideFamilies...)[0]
	if best.Err != nil {
		t.Fatalf("best fit failed: %v", best.Err)
	}
	if best.Family != lasvegas.ShiftedExponential && best.Family != lasvegas.Exponential {
		t.Errorf("best family %v, want an exponential variant (p=%v)", best.Family, best.KS.PValue)
	}
	if best.KS.RejectedAt(0.05) {
		t.Errorf("true family rejected: p=%v", best.KS.PValue)
	}
}

func TestAutoPrefersLogNormalWhenTrue(t *testing.T) {
	truth, _ := dist.NewLogNormal(0, 12, 1.3)
	cands := fitAll(t, campaign(truth, 662, 10), wideFamilies...)
	// The lognormal must rank above normal and Lévy; exponential may
	// occasionally score close but should not beat it with σ=1.3.
	if cands[0].Family != lasvegas.LogNormal {
		t.Errorf("best family %v, want lognormal", cands[0].Family)
		for _, c := range cands {
			t.Logf("  %v p=%v err=%v", c.Family, c.KS.PValue, c.Err)
		}
	}
}

func TestAutoRejectsGaussianForSkewedData(t *testing.T) {
	truth, _ := dist.NewLogNormal(0, 5, 1.5)
	for _, c := range fitAll(t, campaign(truth, 650, 11), wideFamilies...) {
		if c.Family == lasvegas.Normal && c.Err == nil && !c.KS.RejectedAt(0.05) {
			t.Errorf("gaussian accepted on heavily skewed data (p=%v)", c.KS.PValue)
		}
	}
}

func TestBestReturnsAcceptedFit(t *testing.T) {
	truth, _ := dist.NewExponential(0.001)
	m, err := lasvegas.New(lasvegas.WithFamilies(wideFamilies...), lasvegas.WithAlpha(0.05)).
		Fit(campaign(truth, 650, 12))
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := m.GoodnessOfFit(); !ok || g.RejectedAt(0.05) || !m.Accepted() {
		t.Errorf("Fit returned a rejected fit: %+v", g)
	}
}

func TestBestFailsWhenNothingFits(t *testing.T) {
	// A comb-like discrete sample fits none of the continuous families.
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i%2)*1000 + 1
	}
	c := &lasvegas.Campaign{Problem: "comb", Runs: len(xs), Iterations: xs}
	_, err := lasvegas.New(lasvegas.WithFamilies(wideFamilies...), lasvegas.WithAlpha(0.05)).Fit(c)
	if !errors.Is(err, lasvegas.ErrNoAcceptableFit) {
		t.Errorf("two-point sample: want ErrNoAcceptableFit, got %v", err)
	}
}

func TestAutoUnknownFamily(t *testing.T) {
	c := &lasvegas.Campaign{Problem: "tiny", Runs: 5, Iterations: []float64{1, 2, 3, 4, 5}}
	if cands := fitAll(t, c, lasvegas.Family("no-such-family")); cands[0].Err == nil {
		t.Error("unknown family should carry an error")
	}
}
