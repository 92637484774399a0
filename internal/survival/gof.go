package survival

import (
	"fmt"
	"math"

	"lasvegas/internal/dist"
	"lasvegas/internal/ks"
	"lasvegas/internal/xrand"
)

// LogLikelihood returns the censored log-likelihood of d on the
// sample: Σ_events ln f(xᵢ) + Σ_censored ln S(xᵢ). It ranks families
// in censored model selection — unlike KS or AD it uses every
// observation, censored ones included, so a family that explains the
// budget-exceeding mass well is rewarded for it. Returns -Inf when
// the law assigns zero density to an event or zero survival to a
// censoring time.
func LogLikelihood(d dist.Dist, values []float64, censored []bool) float64 {
	var sum float64
	for i, x := range values {
		if censored[i] {
			s := 1 - d.CDF(x)
			if s <= 0 {
				return math.Inf(-1)
			}
			sum += math.Log(s)
		} else {
			f := d.PDF(x)
			if f <= 0 {
				return math.Inf(-1)
			}
			sum += math.Log(f)
		}
	}
	return sum
}

// truncated restricts a law to (-∞, at]: CDF and PDF renormalized by
// F(at). Under a fixed censoring budget B the *uncensored*
// observations of a campaign are i.i.d. draws from exactly this
// conditional law with at = B, which is what lets the ordinary
// one-sample KS and Anderson–Darling machinery run on the uncensored
// region of a censored sample. Verdict-only adapter: Mean and Var are
// not needed by the tests and are reported as NaN.
type truncated struct {
	base dist.Dist
	at   float64
	fAt  float64 // base CDF at the truncation point
}

func newTruncated(base dist.Dist, at float64) (truncated, error) {
	fAt := base.CDF(at)
	if !(fAt > 0) {
		return truncated{}, fmt.Errorf("%w: fitted law has no mass below the budget %v", ErrSample, at)
	}
	return truncated{base: base, at: at, fAt: fAt}, nil
}

func (t truncated) CDF(x float64) float64 {
	if x >= t.at {
		return 1
	}
	return t.base.CDF(x) / t.fAt
}

func (t truncated) PDF(x float64) float64 {
	if x > t.at {
		return 0
	}
	return t.base.PDF(x) / t.fAt
}

func (t truncated) Quantile(p float64) float64 {
	if p >= 1 {
		return t.at
	}
	return t.base.Quantile(p * t.fAt)
}

func (t truncated) Mean() float64 { return math.NaN() }
func (t truncated) Var() float64  { return math.NaN() }

func (t truncated) Sample(r *xrand.Rand) float64 {
	return t.Quantile(r.Float64Open())
}

func (t truncated) Support() (float64, float64) {
	lo, _ := t.base.Support()
	return lo, t.at
}

func (t truncated) String() string {
	return fmt.Sprintf("Truncated(%s at %.6g)", t.base, t.at)
}

// RestrictedKS runs the one-sample Kolmogorov–Smirnov test on the
// uncensored region of a censored sample: the events (observations
// below the cutoff) against the fitted law conditioned on X ≤ cutoff.
// cutoff should be the censoring budget; events above it (possible
// only under non-budget censoring patterns) are excluded. With no
// censored observations this is the ordinary one-sample test.
func RestrictedKS(d dist.Dist, values []float64, censored []bool, cutoff float64) (ks.Result, error) {
	sample, td, err := restrict(d, values, censored, cutoff)
	if err != nil {
		return ks.Result{}, err
	}
	return ks.OneSample(sample, td)
}

// RestrictedAD is the Anderson–Darling counterpart of RestrictedKS —
// the tail-sensitive verdict on the same conditional law.
func RestrictedAD(d dist.Dist, values []float64, censored []bool, cutoff float64) (ks.Result, error) {
	sample, td, err := restrict(d, values, censored, cutoff)
	if err != nil {
		return ks.Result{}, err
	}
	return ks.AndersonDarling(sample, td)
}

// restrict builds the event sub-sample below the cutoff and the
// conditional law it is tested against. When the sample carries no
// censoring the law is used as-is and every observation qualifies.
func restrict(d dist.Dist, values []float64, censored []bool, cutoff float64) ([]float64, dist.Dist, error) {
	if _, err := validate(values, censored); err != nil {
		return nil, nil, err
	}
	anyCensored := false
	for _, c := range censored {
		if c {
			anyCensored = true
			break
		}
	}
	if !anyCensored {
		return values, d, nil
	}
	sample := make([]float64, 0, len(values))
	for i, x := range values {
		if !censored[i] && x <= cutoff {
			sample = append(sample, x)
		}
	}
	if len(sample) == 0 {
		return nil, nil, fmt.Errorf("%w: no uncensored observation below the cutoff %v", ErrSample, cutoff)
	}
	td, err := newTruncated(d, cutoff)
	if err != nil {
		return nil, nil, err
	}
	return sample, td, nil
}

// Cutoff validates a censored sample and returns its censoring
// cutoff: the campaign budget when positive, otherwise the largest
// censored value (the only cutoff the data itself reveals). Samples
// without censoring return +Inf; samples with no events fail with
// ErrAllCensored.
func Cutoff(values []float64, censored []bool, budget float64) (float64, error) {
	if _, err := validate(values, censored); err != nil {
		return 0, err
	}
	if budget > 0 {
		return budget, nil
	}
	cut := math.Inf(1)
	max, any := 0.0, false
	for i, x := range values {
		if censored[i] {
			any = true
			if x > max {
				max = x
			}
		}
	}
	if any {
		cut = max
	}
	return cut, nil
}
