// Package fit estimates runtime-distribution parameters from
// sequential campaign samples, mirroring §6 of the paper:
//
//   - shifted exponential with the paper's estimators x0 = observed
//     minimum, λ = 1/(mean − x0);
//   - plain exponential when x0 is negligible against the mean (the
//     paper's Costas 21 decision);
//   - shifted lognormal by profile maximum likelihood over the shift;
//   - plus normal, gamma, weibull and Lévy MLEs so the auto-fitter can
//     reproduce the paper's "we also tested gaussian and Lévy and got
//     negative results" step.
//
// Auto ranks every candidate family by Kolmogorov–Smirnov p-value and
// returns them ordered, which is exactly the paper's model-selection
// loop in executable form.
//
// The lognormal profile likelihood, evaluated at every step of the
// shift search, reuses log(x − x0) across a run of equal observations
// while still adding every term in sample order. Tied samples (integer
// iteration counts, a sketch's sorted pseudo-sample) thus cost one log
// per distinct run and give the same bits as one log per observation.
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lasvegas/internal/dist"
	"lasvegas/internal/ks"
	"lasvegas/internal/optim"
	"lasvegas/internal/specfn"
	"lasvegas/internal/stats"
)

// ErrSample reports a sample unusable for estimation.
var ErrSample = errors.New("fit: unusable sample")

// negligibleShiftRatio is the paper's informal "x0 ≪ 1/λ" criterion
// made concrete: if min(sample)/mean(sample) is below this ratio we
// also try the unshifted family (Costas 21 had ratio ≈ 0.0017).
const negligibleShiftRatio = 0.01

// ShiftedExponential applies the paper's §6.1 estimators.
func ShiftedExponential(sample []float64) (dist.ShiftedExponential, error) {
	if len(sample) < 2 {
		return dist.ShiftedExponential{}, fmt.Errorf("%w: need ≥2 observations", ErrSample)
	}
	x0 := stats.Min(sample)
	mean := stats.Mean(sample)
	if !(mean > x0) {
		return dist.ShiftedExponential{}, fmt.Errorf("%w: zero spread", ErrSample)
	}
	return dist.NewShiftedExponential(x0, 1/(mean-x0))
}

// Exponential fits the unshifted family: λ = 1/mean (§6.3).
func Exponential(sample []float64) (dist.ShiftedExponential, error) {
	if len(sample) == 0 {
		return dist.ShiftedExponential{}, ErrSample
	}
	mean := stats.Mean(sample)
	if !(mean > 0) {
		return dist.ShiftedExponential{}, fmt.Errorf("%w: non-positive mean", ErrSample)
	}
	return dist.NewExponential(1 / mean)
}

// LogNormalShift fits a lognormal with a fixed shift x0 by MLE on
// log(x − x0); observations at or below the shift are rejected.
func LogNormalShift(sample []float64, x0 float64) (dist.LogNormal, error) {
	logs := make([]float64, 0, len(sample))
	for _, x := range sample {
		if x <= x0 {
			return dist.LogNormal{}, fmt.Errorf("%w: observation %v ≤ shift %v", ErrSample, x, x0)
		}
		logs = append(logs, math.Log(x-x0))
	}
	if len(logs) < 2 {
		return dist.LogNormal{}, fmt.Errorf("%w: need ≥2 observations", ErrSample)
	}
	mu := stats.Mean(logs)
	// MLE uses the biased (1/n) variance.
	var s2 float64
	for _, l := range logs {
		d := l - mu
		s2 += d * d
	}
	s2 /= float64(len(logs))
	if !(s2 > 0) {
		return dist.LogNormal{}, fmt.Errorf("%w: zero log-spread", ErrSample)
	}
	return dist.NewLogNormal(x0, mu, math.Sqrt(s2))
}

// LogNormal fits a three-parameter (shifted) lognormal by profile
// maximum likelihood: for each candidate shift the (μ, σ) MLE is
// closed-form, and the profile log-likelihood is maximized over
// x0 ∈ [0, min) by golden/Brent search. This is the Go equivalent of
// the paper's Mathematica parameter estimation for MS 200.
func LogNormal(sample []float64) (dist.LogNormal, error) {
	if len(sample) < 3 {
		return dist.LogNormal{}, fmt.Errorf("%w: need ≥3 observations", ErrSample)
	}
	minX := stats.Min(sample)
	if minX <= 0 {
		return dist.LogNormal{}, fmt.Errorf("%w: non-positive observations", ErrSample)
	}
	nll := func(x0 float64) float64 { return profileNLL(sample, x0) }
	// The likelihood of the 3-parameter lognormal is unbounded as
	// x0 → min, so search on [0, min − ε] with ε tied to the spread.
	eps := math.Max((stats.Max(sample)-minX)*1e-6, minX*1e-9)
	hi := minX - eps
	if hi <= 0 {
		hi = minX * (1 - 1e-9)
	}
	x0, err := optim.BrentMin(nll, 0, hi, 1e-9)
	if err != nil || math.IsNaN(x0) {
		x0 = 0
	}
	if nll(0) <= nll(x0) {
		x0 = 0 // prefer the simpler unshifted fit when no worse
	}
	return LogNormalShift(sample, x0)
}

// profileNLL is the lognormal profile negative log-likelihood of the
// sample at shift x0, with (μ, σ) at their closed-form MLE. A run of
// equal observations shares one log(x − x0); see the package
// documentation.
func profileNLL(sample []float64, x0 float64) float64 {
	n := float64(len(sample))
	var sumLog, sumLog2, l float64
	for i, x := range sample {
		if i == 0 || math.Float64bits(x) != math.Float64bits(sample[i-1]) {
			t := x - x0
			if t <= 0 {
				return math.Inf(1)
			}
			l = math.Log(t)
		}
		sumLog += l
		sumLog2 += l * l
	}
	mu := sumLog / n
	s2 := sumLog2/n - mu*mu
	if s2 <= 0 {
		return math.Inf(1)
	}
	// -ℓ(x0) = n/2·log(s2) + Σ log t  (dropping constants)
	return n/2*math.Log(s2) + sumLog
}

// Normal fits a gaussian by moments (= MLE).
func Normal(sample []float64) (dist.Normal, error) {
	if len(sample) < 2 {
		return dist.Normal{}, fmt.Errorf("%w: need ≥2 observations", ErrSample)
	}
	sd := stats.StdDev(sample)
	if !(sd > 0) {
		return dist.Normal{}, fmt.Errorf("%w: zero spread", ErrSample)
	}
	return dist.NewNormal(stats.Mean(sample), sd)
}

// Gamma fits by maximum likelihood: the Minka/Choi–Wette Newton
// iteration on the shape, then rate = shape/mean.
func Gamma(sample []float64) (dist.Gamma, error) {
	if len(sample) < 2 {
		return dist.Gamma{}, fmt.Errorf("%w: need ≥2 observations", ErrSample)
	}
	var sum, sumLog float64
	for _, x := range sample {
		if x <= 0 {
			return dist.Gamma{}, fmt.Errorf("%w: non-positive observation %v", ErrSample, x)
		}
		sum += x
		sumLog += math.Log(x)
	}
	n := float64(len(sample))
	mean := sum / n
	s := math.Log(mean) - sumLog/n
	if !(s > 0) {
		return dist.Gamma{}, fmt.Errorf("%w: degenerate gamma sample", ErrSample)
	}
	k := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	for i := 0; i < 50; i++ {
		num := math.Log(k) - specfn.Digamma(k) - s
		den := 1/k - specfn.Trigamma(k)
		step := num / den
		next := k - step
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < 1e-12*k {
			k = next
			break
		}
		k = next
	}
	return dist.NewGamma(k, k/mean)
}

// Weibull fits by maximum likelihood (Newton on the shape equation).
func Weibull(sample []float64) (dist.Weibull, error) {
	if len(sample) < 2 {
		return dist.Weibull{}, fmt.Errorf("%w: need ≥2 observations", ErrSample)
	}
	var sumLog float64
	for _, x := range sample {
		if x <= 0 {
			return dist.Weibull{}, fmt.Errorf("%w: non-positive observation %v", ErrSample, x)
		}
		sumLog += math.Log(x)
	}
	n := float64(len(sample))
	meanLog := sumLog / n
	// Shape equation g(k) = Σx^k lnx / Σx^k − 1/k − meanLog = 0.
	g := func(k float64) float64 {
		var sk, skl float64
		for _, x := range sample {
			xk := math.Pow(x, k)
			sk += xk
			skl += xk * math.Log(x)
		}
		return skl/sk - 1/k - meanLog
	}
	// g is increasing in k; bracket then Brent.
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 && hi < 1e4 {
		hi *= 2
	}
	for g(lo) > 0 && lo > 1e-9 {
		lo /= 2
	}
	k, err := optim.BrentRoot(g, lo, hi, 1e-10)
	if err != nil {
		return dist.Weibull{}, fmt.Errorf("fit: weibull shape: %w", err)
	}
	var sk float64
	for _, x := range sample {
		sk += math.Pow(x, k)
	}
	scale := math.Pow(sk/n, 1/k)
	return dist.NewWeibull(k, scale)
}

// Levy fits the Lévy law with location just below the observed
// minimum and the scale MLE c = n / Σ 1/(xᵢ − loc).
func Levy(sample []float64) (dist.Levy, error) {
	if len(sample) < 2 {
		return dist.Levy{}, fmt.Errorf("%w: need ≥2 observations", ErrSample)
	}
	minX := stats.Min(sample)
	span := stats.Max(sample) - minX
	if !(span > 0) {
		return dist.Levy{}, fmt.Errorf("%w: zero spread", ErrSample)
	}
	loc := minX - span*1e-3
	var invSum float64
	for _, x := range sample {
		invSum += 1 / (x - loc)
	}
	return dist.NewLevy(loc, float64(len(sample))/invSum)
}

// Family identifies a candidate distribution family for Auto.
type Family string

// Candidate families.
const (
	FamExponential        Family = "exponential"
	FamShiftedExponential Family = "shifted-exponential"
	FamLogNormal          Family = "lognormal"
	FamNormal             Family = "normal"
	FamGamma              Family = "gamma"
	FamWeibull            Family = "weibull"
	FamLevy               Family = "levy"
)

// DefaultFamilies is the candidate set the paper effectively
// considers: the two exponential variants and the lognormal it
// accepts, plus the gaussian and Lévy it reports rejecting.
var DefaultFamilies = []Family{
	FamExponential, FamShiftedExponential, FamLogNormal, FamNormal, FamLevy,
}

// AllFamilies adds gamma and weibull to the default set.
var AllFamilies = []Family{
	FamExponential, FamShiftedExponential, FamLogNormal,
	FamNormal, FamGamma, FamWeibull, FamLevy,
}

// Result is one fitted candidate with its goodness of fit.
type Result struct {
	Family Family
	Dist   dist.Dist
	KS     ks.Result
	Err    error // non-nil when the family could not be fitted
}

// Auto fits every requested family (DefaultFamilies when families is
// empty) and returns the results sorted by descending KS p-value.
// Families that fail to fit appear at the end with Err set. The first
// element with Err == nil is the best fit; callers emulating the
// paper should additionally check RejectAt(0.05).
func Auto(sample []float64, families ...Family) ([]Result, error) {
	if len(sample) == 0 {
		return nil, ErrSample
	}
	if len(families) == 0 {
		families = DefaultFamilies
	}
	results := make([]Result, len(families))
	for i, fam := range families {
		results[i] = One(sample, fam)
	}
	sorted := make([]Result, 0, len(results))
	for _, i := range Rank(results) {
		sorted = append(sorted, results[i])
	}
	return sorted, nil
}

// One fits a single family to the sample and tests the fit by KS.
// Calls on the same sample share it read-only, so several families
// may be fitted concurrently.
func One(sample []float64, fam Family) Result {
	r := Result{Family: fam}
	switch fam {
	case FamExponential:
		r.Dist, r.Err = wrap(Exponential(sample))
	case FamShiftedExponential:
		r.Dist, r.Err = wrap(ShiftedExponential(sample))
	case FamLogNormal:
		r.Dist, r.Err = wrap(LogNormal(sample))
	case FamNormal:
		r.Dist, r.Err = wrap(Normal(sample))
	case FamGamma:
		r.Dist, r.Err = wrap(Gamma(sample))
	case FamWeibull:
		r.Dist, r.Err = wrap(Weibull(sample))
	case FamLevy:
		r.Dist, r.Err = wrap(Levy(sample))
	default:
		r.Err = fmt.Errorf("fit: unknown family %q", fam)
	}
	if r.Err != nil {
		return r
	}
	r.KS, r.Err = ks.OneSample(sample, r.Dist)
	return r
}

// Rank returns the indices of results in Auto's order: successful
// fits first, by descending KS p-value, with ties and failures in
// their given order.
func Rank(results []Result) []int {
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := results[order[a]], results[order[b]]
		switch {
		case ra.Err == nil && rb.Err != nil:
			return true
		case ra.Err != nil:
			return false
		}
		return ra.KS.PValue > rb.KS.PValue
	})
	return order
}

// Best returns the highest-p-value successful fit from Auto, or an
// error when no family fits at the given significance level.
func Best(sample []float64, alpha float64, families ...Family) (Result, error) {
	results, err := Auto(sample, families...)
	if err != nil {
		return Result{}, err
	}
	for _, r := range results {
		if r.Err == nil && !r.KS.RejectAt(alpha) {
			return r, nil
		}
	}
	return Result{}, fmt.Errorf("fit: no candidate family passes KS at α=%v", alpha)
}

// NegligibleShift reports whether the paper's x0 ≈ 0 simplification
// applies to the sample (observed minimum negligible vs the mean).
func NegligibleShift(sample []float64) bool {
	m := stats.Mean(sample)
	if !(m > 0) {
		return false
	}
	return stats.Min(sample)/m < negligibleShiftRatio
}

// wrap adapts a concrete (D, error) pair to (dist.Dist, error).
func wrap[D dist.Dist](d D, err error) (dist.Dist, error) {
	if err != nil {
		return nil, err
	}
	return d, nil
}
