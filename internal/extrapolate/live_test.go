package extrapolate_test

import (
	"context"
	"testing"

	"lasvegas"
	"lasvegas/internal/extrapolate"
)

// TestLiveCostasExtrapolation is the paper's §8 scenario end to end:
// learn on Costas 9–11 campaigns, extrapolate to 12, and compare the
// predicted mean against a real size-12 campaign. It lives in the
// external test package because lasvegas imports extrapolate.
func TestLiveCostasExtrapolation(t *testing.T) {
	if testing.Short() {
		t.Skip("live campaigns skipped in -short")
	}
	collect := func(size, runs int) []float64 {
		c, err := lasvegas.New(lasvegas.WithRuns(runs), lasvegas.WithSeed(uint64(size))).
			Collect(context.Background(), lasvegas.Costas, size)
		if err != nil {
			t.Fatal(err)
		}
		return c.Iterations
	}
	obs := []extrapolate.Observation{
		{Size: 9, Sample: collect(9, 200)},
		{Size: 10, Sample: collect(10, 200)},
		{Size: 11, Sample: collect(11, 200)},
	}
	m, err := extrapolate.Learn(obs, 0.01)
	if err != nil {
		t.Skipf("no stable family on this seed: %v", err)
	}
	d, err := m.DistAt(12)
	if err != nil {
		t.Fatal(err)
	}
	actual := collect(12, 150)
	var mean float64
	for _, x := range actual {
		mean += x
	}
	mean /= float64(len(actual))
	ratio := d.Mean() / mean
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("extrapolated mean %v vs measured %v (ratio %.2f)", d.Mean(), mean, ratio)
	}
	t.Logf("extrapolated Costas-12 mean %.0f, measured %.0f (family %v)", d.Mean(), mean, m.Family)
}
