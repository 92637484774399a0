package fit_test

import (
	"testing"

	"lasvegas"
	"lasvegas/internal/dist"
	"lasvegas/internal/fit"
	"lasvegas/internal/xrand"
)

// TestPaperFamilySelectionReplication replays the paper's §6 model
// selection on synthetic campaigns drawn from the paper's own fitted
// laws, with the paper's sample sizes. The pipeline must select the
// same family the paper selected for each benchmark:
//
//   - AI 700  (720 runs) → shifted exponential,
//   - MS 200  (662 runs) → (shifted) lognormal,
//   - Costas 21 (638 runs) → exponential (x0 ≈ 0 negligible).
func TestPaperFamilySelectionReplication(t *testing.T) {
	aiTruth, _ := dist.NewShiftedExponential(1217, 9.15956e-6)
	msTruth, _ := dist.NewLogNormal(6210, 12.0275, 1.3398)
	costasTruth, _ := dist.NewExponential(5.4e-9)

	cases := []struct {
		name   string
		truth  dist.Dist
		runs   int
		accept map[lasvegas.Family]bool // families we'd accept as "the paper's pick"
	}{
		{"AI700", aiTruth, 720, map[lasvegas.Family]bool{lasvegas.ShiftedExponential: true, lasvegas.Exponential: false}},
		{"MS200", msTruth, 662, map[lasvegas.Family]bool{lasvegas.LogNormal: true}},
		{"Costas21", costasTruth, 638, map[lasvegas.Family]bool{lasvegas.Exponential: true, lasvegas.ShiftedExponential: true}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sample := dist.SampleN(tc.truth, xrand.New(uint64(100+i)), tc.runs)
			best, err := lasvegas.New(lasvegas.WithFamilies(lasvegas.DefaultFamilies()...), lasvegas.WithAlpha(0.05)).
				Fit(&lasvegas.Campaign{Problem: tc.name, Runs: tc.runs, Iterations: sample})
			if err != nil {
				t.Fatalf("no family accepted: %v", err)
			}
			if !tc.accept[best.Family()] {
				// A shifted lognormal can mimic a shifted exponential at
				// σ≈1 with finite samples; only hard-fail when the paper's
				// family is outright rejected by KS.
				for _, fam := range lasvegas.DefaultFamilies() {
					if !tc.accept[fam] {
						continue
					}
					if r := fit.One(sample, fit.Family(fam)); r.Err == nil && r.KS.RejectAt(0.05) {
						t.Errorf("paper family %v rejected (p=%v); selected %v",
							fam, r.KS.PValue, best.Family())
					}
				}
				g, _ := best.GoodnessOfFit()
				t.Logf("note: selected %v (p=%v) over the paper family", best.Family(), g.PValue)
			}
		})
	}
}

// TestCostasNegligibleShiftReplication: the paper's §6.3 decision
// point — for Costas-like samples the observed minimum is negligible
// and the unshifted exponential is used, giving exactly linear
// predicted speed-up.
func TestCostasNegligibleShiftReplication(t *testing.T) {
	truth, _ := dist.NewExponential(5.4e-9)
	sample := dist.SampleN(truth, xrand.New(638), 638)
	if !fit.NegligibleShift(sample) {
		t.Error("Costas-scale sample should have negligible shift")
	}
	d, err := fit.Exponential(sample)
	if err != nil {
		t.Fatal(err)
	}
	if d.Shift != 0 {
		t.Errorf("unshifted fit has x0 = %v", d.Shift)
	}
}
