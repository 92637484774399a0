package lasvegas

import (
	"errors"
	"fmt"
	"testing"
)

// TestRankFitsOrder: rankFits puts successful fits first, by
// descending key, and failures last in configured order — a failed
// family with an estimator sorts after a family without one that was
// listed before it — at one worker and at four.
func TestRankFitsOrder(t *testing.T) {
	keys := map[Family]float64{Exponential: 1, LogNormal: 3, Weibull: 2, ShiftedExponential: 3}
	fams := []Family{Normal, Exponential, Gamma, LogNormal, Levy, Weibull, ShiftedExponential}
	one := func(f Family) Candidate {
		k, ok := keys[f]
		if !ok {
			return Candidate{Family: f, Err: errors.New("no estimator")}
		}
		return Candidate{Family: f, LogLik: k}
	}
	want := "[lognormal shifted-exponential weibull exponential normal gamma levy]"
	for _, w := range []int{1, 4} {
		cands := New(WithWorkers(w)).rankFits(fams, one, func(c Candidate) float64 { return c.LogLik })
		got := make([]Family, len(cands))
		for i, c := range cands {
			got[i] = c.Family
		}
		if fmt.Sprint(got) != want {
			t.Errorf("WithWorkers(%d): order %v, want %s", w, got, want)
		}
	}
}
