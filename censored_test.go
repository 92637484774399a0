package lasvegas_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lasvegas"
)

// censoredFixture is the committed fixed-seed budgeted Costas
// campaign: the campaign_costas13.json collection re-run with
// -maxiter 1274 (the q0.75 budget), censoring 50 of its 200 runs.
var censoredFixture = filepath.Join("testdata", "campaign_costas13_censored.json")

// updateCensoredGolden regenerates the golden censored-fit output
// (UPDATE_CENSORED=1 go test -run TestCensoredFitGolden).
var updateCensoredGolden = os.Getenv("UPDATE_CENSORED") != ""

func loadCensoredFixture(t *testing.T) *lasvegas.Campaign {
	t.Helper()
	c, err := lasvegas.LoadCampaign(censoredFixture)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCensoredFitEndToEnd drives the acceptance path of the censored
// subsystem: a ≥20%-censored budgeted campaign flows through FitAll,
// Fit and PlugIn without ErrCensored, the model JSON records the
// censoring fraction and estimator kind, and the predictions are
// finite and ordered.
func TestCensoredFitEndToEnd(t *testing.T) {
	c := loadCensoredFixture(t)
	if got := c.CensoredFraction(); got < 0.2 {
		t.Fatalf("fixture censoring fraction %v, want ≥ 0.2", got)
	}
	p := lasvegas.New(lasvegas.WithCensoredFit(true))

	cands, err := p.FitAll(c)
	if err != nil {
		t.Fatalf("FitAll: %v", err)
	}
	var sawLogLik bool
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if a.Err == nil && b.Err == nil && a.LogLikValid && b.LogLikValid {
			sawLogLik = true
			if a.LogLik < b.LogLik {
				t.Errorf("candidates not ranked by censored log-likelihood: %v < %v", a.LogLik, b.LogLik)
			}
		}
	}
	if !sawLogLik {
		t.Error("no pair of candidates carried censored log-likelihoods")
	}

	best, err := p.Fit(c)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if best.Estimator() != lasvegas.EstimatorCensoredMLE {
		t.Errorf("estimator %q, want %q", best.Estimator(), lasvegas.EstimatorCensoredMLE)
	}
	if best.CensoredFraction() != 0.25 {
		t.Errorf("censored fraction %v, want 0.25", best.CensoredFraction())
	}
	data, err := json.Marshal(best)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"censored_fraction": 0.25`, `"estimator": "censored-mle"`} {
		if !strings.Contains(indentJSON(t, data), want) {
			t.Errorf("model JSON missing %s:\n%s", want, indentJSON(t, data))
		}
	}
	prev := 1.0
	for _, n := range []int{16, 64, 256} {
		g, err := best.Speedup(n)
		if err != nil {
			t.Fatalf("Speedup(%d): %v", n, err)
		}
		if !(g > prev) || math.IsInf(g, 0) || math.IsNaN(g) {
			t.Errorf("G(%d) = %v, want finite and increasing past %v", n, g, prev)
		}
		prev = g
	}

	km, err := p.PlugIn(c)
	if err != nil {
		t.Fatalf("PlugIn: %v", err)
	}
	if km.Family() != lasvegas.KaplanMeier || km.Estimator() != lasvegas.EstimatorKaplanMeier {
		t.Errorf("plug-in family/estimator = %s/%s", km.Family(), km.Estimator())
	}
	z, err := km.MinExpectation(16)
	if err != nil || !(z > 0) {
		t.Errorf("KM E[Z(16)] = %v, %v", z, err)
	}

	// Without the opt-in the same campaign still errors, as before.
	strict := lasvegas.New()
	if _, err := strict.Fit(c); err == nil {
		t.Error("Fit without WithCensoredFit accepted a censored campaign")
	}
}

func indentJSON(t *testing.T, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBudgetedCollectMatchesClippedCampaign: collecting with a budget
// reproduces the unbudgeted campaign clipped at the budget, run for
// run — the determinism property that makes committed censored
// fixtures regenerable from the same seed.
func TestBudgetedCollectMatchesClippedCampaign(t *testing.T) {
	ctx := context.Background()
	fullP := lasvegas.New(lasvegas.WithRuns(30), lasvegas.WithSeed(4))
	full, err := fullP.Collect(ctx, lasvegas.Costas, 10)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(full.IterationSummary().Median)
	budP := lasvegas.New(lasvegas.WithRuns(30), lasvegas.WithSeed(4), lasvegas.WithBudget(budget))
	bud, err := budP.Collect(ctx, lasvegas.Costas, 10)
	if err != nil {
		t.Fatal(err)
	}
	cens := map[int]bool{}
	for _, i := range bud.Censored {
		cens[i] = true
	}
	for i, x := range full.Iterations {
		want := x
		if x > float64(budget) {
			want = float64(budget)
			if !cens[i] {
				t.Errorf("run %d: %v exceeds budget %d but is not censored", i, x, budget)
			}
		} else if cens[i] {
			t.Errorf("run %d: %v within budget %d but censored", i, x, budget)
		}
		if bud.Iterations[i] != want {
			t.Errorf("run %d: budgeted %v, want clipped %v", i, bud.Iterations[i], want)
		}
	}
}

// TestCensoredFitGolden locks the full censored fit of the committed
// fixture — ranked candidate table, best model JSON, KM plug-in and
// predictions — against testdata/censored_fit.golden. Byte-stable
// output here is what byte-stable lvserve responses are made of.
func TestCensoredFitGolden(t *testing.T) {
	c := loadCensoredFixture(t)
	p := lasvegas.New(
		lasvegas.WithFamilies(lasvegas.CensoredFamilies()...),
		lasvegas.WithCensoredFit(true))
	cands, err := p.FitAll(c)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %s runs=%d censored=%d budget=%d fraction=%.6g\n",
		c.Problem, len(c.Iterations), len(c.Censored), c.Budget, c.CensoredFraction())
	for _, cand := range cands {
		if cand.Err != nil {
			fmt.Fprintf(&b, "%-20s could not fit: %v\n", cand.Family, cand.Err)
			continue
		}
		fmt.Fprintf(&b, "%-20s %-44s logL=%.6g KS(D=%.6g p=%.6g n=%d)\n",
			cand.Family, cand.Law, cand.LogLik, cand.KS.Stat, cand.KS.PValue, cand.KS.N)
	}
	best, err := p.Fit(c)
	if err != nil {
		t.Fatal(err)
	}
	bestJSON, err := json.Marshal(best)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "best: %s\n", bestJSON)
	km, err := p.PlugIn(c)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "plugin: %s\n", km)
	for _, n := range []int{16, 64, 256} {
		gp, err := best.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		gk, err := km.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "G(%d): mle=%.6g km=%.6g\n", n, gp, gk)
	}

	goldenPath := filepath.Join("testdata", "censored_fit.golden")
	if updateCensoredGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_CENSORED=1 to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("censored fit output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCensoredFitFailureNamesFamiliesTried: when no censored fit is
// accepted, Fit's error names the families FitAll actually raced —
// CensoredFamilies under the default choice, Weibull included — not
// the complete-sample defaults.
func TestCensoredFitFailureNamesFamiliesTried(t *testing.T) {
	c := loadCensoredFixture(t)
	_, err := lasvegas.New(lasvegas.WithCensoredFit(true), lasvegas.WithAlpha(0.99)).Fit(c)
	if !errors.Is(err, lasvegas.ErrNoAcceptableFit) {
		t.Fatalf("want ErrNoAcceptableFit, got %v", err)
	}
	if want := fmt.Sprint(lasvegas.CensoredFamilies()); !strings.Contains(err.Error(), want) ||
		!strings.Contains(err.Error(), string(lasvegas.Weibull)) {
		t.Errorf("error %q does not name the families tried %s", err, want)
	}
}
