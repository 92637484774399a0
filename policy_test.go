package lasvegas_test

import (
	"math"
	"testing"

	"lasvegas"
)

// TestOptimalRestartIsPanelRow: OptimalRestart is the fitted-optimal
// row of Policies, field for field, on the fitted and plug-in models
// of both committed Costas fixtures. The values are pinned as they
// stand: the fitted ShiftedExp laws never restart, while the plug-in
// laws restart at the sample minimum of 3 iterations — one run in 200
// finished there, and the plug-in law takes that at face value.
func TestOptimalRestartIsPanelRow(t *testing.T) {
	type pin struct{ cutoff, expected, gain float64 }
	cases := []struct {
		name, path string
		fitted     bool
		want       pin // E[T] to 2 decimals, gain to 4
	}{
		{"raw/fitted", "testdata/campaign_costas13.json", true, pin{math.Inf(1), 945.84, 1}},
		{"raw/plug-in", "testdata/campaign_costas13.json", false, pin{3, 600, 1.5764}},
		{"censored/fitted", censoredFixture, true, pin{math.Inf(1), 980.83, 1}},
		{"censored/plug-in", censoredFixture, false, pin{3, 600, 1.2273}},
	}
	p := lasvegas.New(lasvegas.WithCensoredFit(true))
	for _, tc := range cases {
		c, err := lasvegas.LoadCampaign(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var m *lasvegas.Model
		if tc.fitted {
			m, err = p.Fit(c)
		} else {
			m, err = p.PlugIn(c)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opt, err := m.OptimalRestart()
		if err != nil {
			t.Fatalf("%s: OptimalRestart: %v", tc.name, err)
		}
		evals, err := m.Policies()
		if err != nil {
			t.Fatalf("%s: Policies: %v", tc.name, err)
		}
		var row *lasvegas.PolicyEvaluation
		for i := range evals {
			if evals[i].Policy == lasvegas.PolicyFittedOptimal {
				row = &evals[i]
			}
		}
		if row == nil {
			t.Fatalf("%s: panel has no %s row", tc.name, lasvegas.PolicyFittedOptimal)
		}
		if opt.Cutoff != row.Cutoff || opt.ExpectedRuntime != row.Expected || opt.Gain != row.Gain {
			t.Errorf("%s: OptimalRestart %+v != panel row %+v", tc.name, opt, *row)
		}
		if w := tc.want; opt.Cutoff != w.cutoff ||
			math.Abs(opt.ExpectedRuntime-w.expected) > 0.005 ||
			math.Abs(opt.Gain-w.gain) > 0.00005 {
			t.Errorf("%s: OptimalRestart %+v, want cutoff %v E[T] %v gain %v",
				tc.name, opt, w.cutoff, w.expected, w.gain)
		}
	}
}
