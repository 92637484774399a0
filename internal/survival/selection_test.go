package survival_test

import (
	"math"
	"testing"

	"lasvegas"
	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// TestAutoRanking: censored model selection (lasvegas.Predictor.FitAll
// under WithCensoredFit, over this package's estimators) fits the
// censored-capable families on a censored exponential sample, ranks
// them by censored log-likelihood, attaches restricted KS verdicts and
// keeps the exponential near the top.
func TestAutoRanking(t *testing.T) {
	base, _ := dist.NewExponential(1.0 / 700)
	budget := math.Round(base.Quantile(0.75))
	c := &lasvegas.Campaign{Problem: "censored-exponential", Runs: 800, Budget: int64(budget)}
	for i, x := range dist.SampleN(base, xrand.New(31), 800) {
		if x > budget {
			x = budget
			c.Censored = append(c.Censored, i)
		}
		c.Iterations = append(c.Iterations, x)
	}
	p := lasvegas.New(lasvegas.WithCensoredFit(true), lasvegas.WithAlpha(0.05))

	cands, err := p.FitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(lasvegas.CensoredFamilies()) {
		t.Fatalf("got %d candidates, want %d", len(cands), len(lasvegas.CensoredFamilies()))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Err == nil && cands[i].Err == nil && cands[i-1].LogLik < cands[i].LogLik {
			t.Errorf("candidates not ranked by log-likelihood: %v < %v at %d",
				cands[i-1].LogLik, cands[i].LogLik, i)
		}
	}
	best, err := p.Fit(c)
	if err != nil {
		t.Fatal(err)
	}
	switch best.Family() {
	case lasvegas.Exponential, lasvegas.Weibull, lasvegas.ShiftedExponential:
	default:
		t.Errorf("best family %s for an exponential truth", best.Family())
	}
	if g, _ := best.GoodnessOfFit(); g.N == 0 || g.PValue < 0.05 {
		t.Errorf("restricted KS verdict missing or rejecting the truth: %+v", g)
	}
	// A family without a censored estimator fails per-candidate, not
	// poisoning the run.
	cands, err = lasvegas.New(lasvegas.WithCensoredFit(true),
		lasvegas.WithFamilies(lasvegas.Exponential, lasvegas.Levy)).FitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Err != nil || cands[len(cands)-1].Err == nil {
		t.Errorf("want exponential fitted and levy failed, got %v then %v", cands[0].Err, cands[len(cands)-1].Err)
	}
}
