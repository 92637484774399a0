package ks

import (
	"math"
	"sync"

	"lasvegas/internal/dist"
)

// AndersonDarling is a second goodness-of-fit test, more sensitive in
// the tails than Kolmogorov–Smirnov — useful exactly where runtime
// distributions matter most for speed-up prediction, since E[Z(n)]
// for large n is dominated by the left tail. The paper uses only KS;
// this is an extension with the same accept/reject interface.
//
// The statistic is A² = -n - (1/n)·Σ (2i-1)[ln F(x₍ᵢ₎) + ln(1-F(x₍ₙ₊₁₋ᵢ₎))],
// and the p-value uses the case-0 (fully specified distribution)
// asymptotic approximation of Marsaglia & Marsaglia (2004), accurate
// to ~1e-3 for n ≥ 8.
//
// The CDF and both logs are evaluated once per distinct value of the
// sorted sample, then the sum runs term by term in the textbook order,
// so tied samples (integer iteration counts, sketch pseudo-samples)
// cost one evaluation per atom and give the same bits as evaluating
// every term.
func AndersonDarling(sample []float64, d dist.Dist) (Result, error) {
	n := len(sample)
	if n == 0 {
		return Result{}, ErrEmpty
	}
	xs := ascending(sample)
	sp := logScratch.Get().(*[]float64)
	logs := (*sp)[:0] // per distinct value: ln F, ln(1−F)
	for i, x := range xs {
		if i == 0 || !sameBits(x, xs[i-1]) {
			f := clampUnit(d.CDF(x))
			logs = append(logs, math.Log(f), math.Log(1-f))
		}
	}
	nf := float64(n)
	a2 := -nf
	lo, hi := 0, len(logs)-2 // distinct indices of xs[i] and xs[n-1-i], times 2
	for i := 0; i < n; i++ {
		if i > 0 {
			if !sameBits(xs[i], xs[i-1]) {
				lo += 2
			}
			if !sameBits(xs[n-1-i], xs[n-i]) {
				hi -= 2
			}
		}
		a2 -= (2*float64(i) + 1) / nf * (logs[lo] + logs[hi+1])
	}
	*sp = logs
	logScratch.Put(sp)
	return Result{N: n, D: a2, PValue: adPValue(a2)}, nil
}

// logScratch pools AndersonDarling's per-value log buffers.
var logScratch = sync.Pool{New: func() any { return new([]float64) }}

// clampUnit keeps CDF values strictly inside (0,1) so the logs stay
// finite; ties at the support edge otherwise produce ±Inf.
func clampUnit(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// adPValue is the Marsaglia 2004 approximation to P(A² > a2) for a
// fully specified null distribution.
func adPValue(a2 float64) float64 {
	if a2 <= 0 {
		return 1
	}
	// Both branches below evaluate the survival P(A² > a2) directly:
	// the first is 1 − CDF with the small-a2 series, the second the
	// large-a2 double-exponential form.
	var p float64
	switch {
	case a2 < 2:
		p = 1 - math.Exp(-1.2337141/a2)/math.Sqrt(a2)*
			(2.00012+(0.247105-(0.0649821-(0.0347962-(0.011672-0.00168691*a2)*a2)*a2)*a2)*a2)
	default:
		p = 1 - math.Exp(-math.Exp(1.0776-(2.30695-(0.43424-(0.082433-(0.008056-0.0003146*a2)*a2)*a2)*a2)*a2))
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
