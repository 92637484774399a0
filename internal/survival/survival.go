// Package survival fits runtime distributions to *censored* Las Vegas
// campaigns — the samples produced by budgeted collection (`lvseq
// -maxiter`, Predictor.WithBudget), where runs that exhaust the
// iteration budget are observed only as "longer than the budget".
//
// Hoos & Stützle ("Evaluating Las Vegas Algorithms — Pitfalls and
// Remedies") show right-censored runtime distributions are the norm
// for bounded Las Vegas measurements and are handled with survival
// estimators rather than discarded. This package provides the two
// standard tools, shaped to this repository's prediction pipeline:
//
//   - KaplanMeier — the nonparametric product-limit estimator. Its
//     constructor only computes the product-limit steps; the law
//     itself is a dist.Step (O(log m) CDF and quantile, exact
//     one-pass MinExpectation and TruncatedMean), so a censored
//     campaign can still feed the plug-in speed-up predictor
//     G(n) = E[Y]/E[Z(n)]. On a censoring-free sample the steps are
//     the unit weights of dist.NewEmpirical, so a KaplanMeier runs the
//     same code as the empirical law and matches it bit for bit.
//   - Censored maximum likelihood for the parametric families the
//     paper accepts (exponential, shifted exponential, lognormal)
//     plus the min-stable Weibull: closed forms where they exist
//     (the exponential variants), damped Newton on the censored
//     log-likelihood elsewhere (Weibull shape profile, lognormal
//     (μ, σ)).
//
// Goodness of fit under censoring cannot use the plain KS/AD tests —
// the censored half of the sample carries no exact values. Auto
// therefore ranks candidate families by censored log-likelihood and
// attaches KS and Anderson–Darling verdicts computed on the
// *uncensored region only*: under a fixed budget B the uncensored
// observations are i.i.d. draws from the conditional law
// F(x)/F(B), so the tests run against that truncated distribution.
//
// All estimators are deterministic for a given sample; none allocate
// on evaluation paths after construction.
package survival

import (
	"errors"
	"fmt"
	"sort"
)

// ErrSample reports a sample unusable for censored estimation.
var ErrSample = errors.New("survival: unusable sample")

// ErrAllCensored reports a sample with no uncensored observation:
// every run hit the budget, so there is no event to anchor any
// estimate (the Kaplan–Meier curve would never leave 1).
var ErrAllCensored = errors.New("survival: every observation is censored")

// obs is one observation with its censoring status.
type obs struct {
	x        float64
	censored bool
}

// validate runs the shared sample checks in one linear pass — no
// sort, no allocation — and returns the event count. Every exported
// estimator calls this; only the Kaplan–Meier constructor needs the
// sorted view (sortedObs) as well.
func validate(values []float64, censored []bool) (events int, err error) {
	if len(values) == 0 {
		return 0, fmt.Errorf("%w: empty sample", ErrSample)
	}
	if len(censored) != len(values) {
		return 0, fmt.Errorf("%w: %d values but %d censoring flags",
			ErrSample, len(values), len(censored))
	}
	for i, x := range values {
		if x != x || x < 0 {
			return 0, fmt.Errorf("%w: observation %v", ErrSample, x)
		}
		if !censored[i] {
			events++
		}
	}
	if events == 0 {
		return 0, fmt.Errorf("%w (%d observations)", ErrAllCensored, len(values))
	}
	return events, nil
}

// sortedObs validates and sorts a censored sample: ascending by
// value, with events *before* censorings at tied values (the standard
// Kaplan–Meier convention — a run observed to finish at t proves the
// runtime can be t, while a run cut off at t only proves it exceeds
// t). Returns the sorted observations and the event count.
func sortedObs(values []float64, censored []bool) ([]obs, int, error) {
	events, err := validate(values, censored)
	if err != nil {
		return nil, 0, err
	}
	out := make([]obs, len(values))
	for i, x := range values {
		out[i] = obs{x: x, censored: censored[i]}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].x != out[j].x {
			return out[i].x < out[j].x
		}
		return !out[i].censored && out[j].censored
	})
	return out, events, nil
}
