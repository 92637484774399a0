package survival

import (
	"fmt"
	"math"

	"lasvegas/internal/dist"
)

// KaplanMeier is the product-limit estimator of a right-censored
// runtime sample. It is a dist.Step whose atoms are the sorted
// observations (events and censorings interleaved in time order) and
// whose masses are the product-limit steps, so censored campaigns
// feed the same plug-in prediction path as complete ones: binary-search
// CDF and quantile, and the exact one-pass MinExpectation and
// TruncatedMean, all from the one shared step-law implementation.
//
// Two conventions, both standard:
//
//   - ties between an event and a censoring are resolved event-first
//     (a run finishing at t proves the runtime reaches t; a run cut
//     off at t only proves it exceeds t);
//   - when the largest observation is censored the curve never
//     reaches zero, so the leftover probability mass is assigned to
//     that largest observation (Efron's tail convention). Mean and
//     MinExpectation are therefore *restricted* means — biased low
//     when the censoring fraction is high, which is exactly why the
//     parametric censored-MLE fits exist alongside.
//
// On a sample with no censoring at all the constructor returns the
// unit-weight step law of dist.NewEmpirical, so every derived
// quantity reproduces the empirical law bit for bit by construction.
//
// A KaplanMeier is read-only after construction and safe for
// concurrent use.
type KaplanMeier struct {
	dist.Step
	ev int // number of events (uncensored observations)
}

// NewKaplanMeier estimates the product-limit law of a right-censored
// sample: values[i] is the observed runtime, censored[i] marks runs
// cut off at that value. It fails on empty samples, negative or NaN
// observations, mismatched slice lengths, and samples with no
// uncensored observation (ErrAllCensored).
func NewKaplanMeier(values []float64, censored []bool) (*KaplanMeier, error) {
	sorted, events, err := sortedObs(values, censored)
	if err != nil {
		return nil, err
	}
	m := len(sorted)
	xs := make([]float64, m)
	for i, o := range sorted {
		xs[i] = o.x
	}
	if events == m {
		return &KaplanMeier{Step: dist.NewStep(xs, nil, nil, xs[0], xs[m-1]), ev: m}, nil
	}
	// Survival recursion Ŝ ← Ŝ·(nᵢ-1)/nᵢ at each event (risk set
	// nᵢ = m-i when observations are processed one at a time; tied
	// events just apply consecutive factors). While no censoring has
	// been seen the product telescopes to the exact integer ratio of
	// the empirical law; after the first censoring the recursion runs
	// multiplicatively, which is the textbook estimator. The CDF is
	// kept in probability units (W = 1) next to the survival, so the
	// quantile search and the survival powers both read exact steps.
	surv := make([]float64, m)
	cdf := make([]float64, m)
	mf := float64(m)
	s := 1.0
	seenCensored := false
	firstEvent := math.NaN()
	for i, o := range sorted {
		switch {
		case o.censored:
			seenCensored = true
		case seenCensored:
			risk := float64(m - i)
			s *= (risk - 1) / risk
		default:
			s = float64(m-i-1) / mf
		}
		if !o.censored && math.IsNaN(firstEvent) {
			firstEvent = o.x
		}
		surv[i] = s
		if seenCensored {
			cdf[i] = 1 - s
		} else {
			cdf[i] = float64(i+1) / mf
		}
	}
	// Efron tail: drop the curve to zero at the largest observation
	// so the law is proper and every moment is finite.
	surv[m-1] = 0
	cdf[m-1] = 1
	return &KaplanMeier{Step: dist.NewStep(xs, cdf, surv, firstEvent, xs[m-1]), ev: events}, nil
}

// CensoredCount returns the number of censored observations.
func (k *KaplanMeier) CensoredCount() int { return k.Len() - k.ev }

// String implements dist.Dist.
func (k *KaplanMeier) String() string {
	if k.ev == k.Len() {
		return fmt.Sprintf("KaplanMeier(m=%d, mean=%.6g)", k.Len(), k.Mean())
	}
	return fmt.Sprintf("KaplanMeier(m=%d, censored=%d, mean=%.6g)", k.Len(), k.CensoredCount(), k.Mean())
}
