package core_test

// Integration tests exercising the complete §5–§7 pipeline across
// package boundaries: solve → collect → fit → predict → compare with
// simulated multi-walk measurements.

import (
	"context"
	"math"
	"testing"

	"lasvegas"
	"lasvegas/internal/core"
	"lasvegas/internal/multiwalk"
)

// TestPipelineQueens runs the full paper pipeline on a cheap workload
// and checks that the parametric prediction, the plug-in prediction
// and the simulated multi-walk measurement all agree within Monte
// Carlo tolerances.
func TestPipelineQueens(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short")
	}
	campaign, err := lasvegas.New(lasvegas.WithRuns(150), lasvegas.WithSeed(3)).
		Collect(context.Background(), lasvegas.Queens, 24)
	if err != nil {
		t.Fatal(err)
	}

	parametric, err := lasvegas.New(lasvegas.WithFamilies(lasvegas.DefaultFamilies()...), lasvegas.WithAlpha(0.01)).
		Fit(campaign)
	if err != nil {
		t.Fatalf("no family fits queens runtimes: %v", err)
	}
	plugin, err := core.NewEmpirical(campaign.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := multiwalk.MeasureSimulated(campaign.Iterations, []int{2, 4, 8}, 6000, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{2, 4, 8} {
		gp, err := parametric.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := plugin.Speedup(n)
		if err != nil {
			t.Fatal(err)
		}
		gm := measured[i].Speedup
		// Plug-in and measurement share the ECDF: tight agreement.
		if math.Abs(ge-gm) > 0.1*gm {
			t.Errorf("n=%d: plug-in %v vs measured %v", n, ge, gm)
		}
		// Parametric may deviate more (model error), but must be in the
		// right regime.
		if gp < 1 || gp > 3*gm {
			t.Errorf("n=%d: parametric %v vs measured %v", n, gp, gm)
		}
	}
}

// TestPipelinePredictionBeforeMeasurement demonstrates the paper's
// use-case: predict at a core count we never measured, then verify.
func TestPipelinePredictionBeforeMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short")
	}
	campaign, err := lasvegas.New(lasvegas.WithRuns(200), lasvegas.WithSeed(5)).
		Collect(context.Background(), lasvegas.Costas, 9)
	if err != nil {
		t.Fatal(err)
	}
	plugin, err := core.NewEmpirical(campaign.Iterations)
	if err != nil {
		t.Fatal(err)
	}
	const target = 32
	predicted, err := plugin.Speedup(target)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := multiwalk.MeasureSimulated(campaign.Iterations, []int{target}, 8000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(predicted-measured[0].Speedup) > 0.15*measured[0].Speedup {
		t.Errorf("plug-in predicted %v, measured %v", predicted, measured[0].Speedup)
	}
}
