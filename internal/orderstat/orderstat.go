// Package orderstat implements the order-statistics machinery of the
// paper's §3: the distribution of Z(n) = min(X₁..Xₙ) for n i.i.d.
// copies of a runtime distribution Y, its moments, and the moments of
// k-th order statistics in general.
//
// The central identities (paper §3.1):
//
//	F_Z(n)(x) = 1 - (1 - F_Y(x))ⁿ
//	f_Z(n)(x) = n·f_Y(x)·(1 - F_Y(x))ⁿ⁻¹
//
// Moments are computed in the quantile domain, following the explicit
// order-statistic moment formulas surveyed by Nadarajah (2008), which
// the paper cites as its computational device:
//
//	E[Z(n)ʳ] = ∫₀¹ Q_Y(1-(1-v)^{1/n})ʳ dv
//
// (change of variable v = 1-(1-u)ⁿ in E = ∫₀¹ Q_Y(u)ʳ·n(1-u)ⁿ⁻¹ du).
// The quantile form stays numerically stable for n in the thousands,
// where the time-domain integrand n·f·(1-F)ⁿ⁻¹ underflows; the
// time-domain integral is retained for cross-checking and ablation.
package orderstat

import (
	"fmt"
	"math"

	"lasvegas/internal/dist"
	"lasvegas/internal/quad"
	"lasvegas/internal/xrand"
)

// integTol is the default absolute/relative tolerance for moment
// integrals; the model never needs more than ~6 significant digits.
const integTol = 1e-10

// Min is the distribution of the minimum of N i.i.d. draws from Base.
// It implements dist.Dist, so a Min can itself be fed back into the
// predictor or plotted like any other distribution (Figures 1, 2, 4).
type Min struct {
	Base dist.Dist
	N    int
}

// NewMin validates n >= 1.
func NewMin(base dist.Dist, n int) (Min, error) {
	if n < 1 {
		return Min{}, fmt.Errorf("%w: order statistic over n=%d draws", dist.ErrParam, n)
	}
	if base == nil {
		return Min{}, fmt.Errorf("%w: nil base distribution", dist.ErrParam)
	}
	return Min{Base: base, N: n}, nil
}

// CDF implements dist.Dist: 1-(1-F)ⁿ evaluated as -expm1(n·log1p(-F))
// to avoid catastrophic cancellation for small F and large n.
func (m Min) CDF(x float64) float64 {
	f := m.Base.CDF(x)
	if f >= 1 {
		return 1
	}
	return -math.Expm1(float64(m.N) * math.Log1p(-f))
}

// PDF implements dist.Dist: n·f·(1-F)ⁿ⁻¹.
func (m Min) PDF(x float64) float64 {
	f := m.Base.CDF(x)
	if f >= 1 {
		return 0
	}
	surv := math.Exp(float64(m.N-1) * math.Log1p(-f))
	return float64(m.N) * m.Base.PDF(x) * surv
}

// Quantile implements dist.Dist: Q_Z(p) = Q_Y(1-(1-p)^{1/n}).
func (m Min) Quantile(p float64) float64 {
	if p <= 0 {
		lo, _ := m.Base.Support()
		return lo
	}
	if p >= 1 {
		return m.Base.Quantile(1)
	}
	u := -math.Expm1(math.Log1p(-p) / float64(m.N))
	return m.Base.Quantile(u)
}

// minExpecter is implemented by sample-backed laws whose expected
// minimum of n draws has an exact one-pass form over their sorted
// backing array — dist.Step and the estimators built on it. Matching
// the capability rather than the concrete type keeps this package
// from importing the estimator layers above it.
type minExpecter interface {
	MinExpectation(n int) float64
}

// Mean implements dist.Dist, preferring closed forms (exponential,
// Weibull min-stability, the exact pass of sample-backed laws) and
// falling back to quantile-domain quadrature.
func (m Min) Mean() float64 {
	switch b := m.Base.(type) {
	case dist.ShiftedExponential:
		return b.MinDist(m.N).Mean()
	case dist.Weibull:
		return b.MinDist(m.N).Mean()
	case minExpecter:
		return b.MinExpectation(m.N)
	}
	e, err := Moment(m.Base, m.N, 1)
	if err != nil {
		if b, ok := m.Base.(dist.LogNormal); ok {
			if e, err := lognormalMeanMin(b, m.N); err == nil {
				return e
			}
		}
		return math.NaN()
	}
	return e
}

// lognormalMeanMin returns E[Z(n)] of a shifted lognormal in the
// normal-score domain (see lognormalMinMoment). Mean uses it only
// where Moment's quadrature fails, so every value Moment does deliver
// is unchanged.
func lognormalMeanMin(d dist.LogNormal, n int) (float64, error) {
	m1, err := lognormalMinMoment(d, n, 1)
	return d.Shift + m1, err
}

// lognormalVarMin returns Var[Z(n)] of a shifted lognormal from the
// first two normal-score moments; the shift cancels.
func lognormalVarMin(d dist.LogNormal, n int) (float64, error) {
	m1, err := lognormalMinMoment(d, n, 1)
	if err != nil {
		return math.NaN(), err
	}
	m2, err := lognormalMinMoment(d, n, 2)
	if err != nil {
		return math.NaN(), err
	}
	return m2 - m1*m1, nil
}

// lognormalMinMoment returns E[(Z(n) − x0)^k] of a shifted lognormal
// in the normal-score domain. With X = x0 + e^{μ+σW} and W standard
// normal, the minimum of n draws is x0 + e^{μ+σ·W₍₁₎}, and with
// s = kσ
//
//	E[(Z(n) − x0)^k] = e^{kμ}·E[e^{s·W₍₁₎}] = e^{kμ+s²/2}·∫ n·φ(z−s)·Φ̄(z)^{n−1} dz,
//
// whose integrand is a smooth log-concave bump at any σ, where the
// quantile-domain integrand of Moment spikes near v → 1 once σ ≳ 4 and
// its error estimate gives up. The bump's peak is found on a grid and
// scaled to 1 before tanh-sinh, so the tolerance stays relative
// whatever n.
func lognormalMinMoment(d dist.LogNormal, n, k int) (float64, error) {
	nf := float64(n)
	s := float64(k) * d.Sigma
	logBump := func(z float64) float64 {
		u := z - s
		l := math.Log(nf) - 0.5*u*u - 0.5*math.Log(2*math.Pi)
		if n > 1 {
			l += (nf - 1) * logNormalSurvival(z)
		}
		return l
	}
	peakZ, peak := 0.0, math.Inf(-1)
	for z := -40.0; z <= s+10; z += 0.25 {
		if l := logBump(z); l > peak {
			peakZ, peak = z, l
		}
	}
	j, err := quad.TanhSinh(func(z float64) float64 {
		return math.Exp(logBump(z) - peak)
	}, peakZ-15, peakZ+15, integTol)
	if err != nil {
		return math.NaN(), err
	}
	return math.Exp(float64(k)*d.Mu+0.5*s*s+peak) * j, nil
}

// logNormalSurvival returns log Φ̄(z), accurate in both tails.
func logNormalSurvival(z float64) float64 {
	if z < 0 {
		return math.Log1p(-0.5 * math.Erfc(-z/math.Sqrt2))
	}
	return math.Log(0.5 * math.Erfc(z/math.Sqrt2))
}

// Var implements dist.Dist, preferring the min-stable closed forms
// and falling back to the first two quantile-domain moments, and for a
// lognormal law whose quadrature fails, to the normal-score moments.
func (m Min) Var() float64 {
	switch b := m.Base.(type) {
	case dist.ShiftedExponential:
		return b.MinDist(m.N).Var()
	case dist.Weibull:
		return b.MinDist(m.N).Var()
	}
	e1, err1 := Moment(m.Base, m.N, 1)
	e2, err2 := Moment(m.Base, m.N, 2)
	if err1 != nil || err2 != nil {
		if b, ok := m.Base.(dist.LogNormal); ok {
			if v, err := lognormalVarMin(b, m.N); err == nil {
				return v
			}
		}
		return math.NaN()
	}
	return e2 - e1*e1
}

// Sample implements dist.Dist by the probability-integral transform:
// (1-F_Y(Z))ⁿ is uniform, hence Z = Q_Y(1-U^{1/n}) — one quantile
// evaluation instead of n base samples.
func (m Min) Sample(r *xrand.Rand) float64 {
	u := r.Float64Open()
	return m.Base.Quantile(-math.Expm1(math.Log(u) / float64(m.N)))
}

// SampleBrute draws min(X₁..Xₙ) literally; used by tests to validate
// Sample and by the ablation bench.
func (m Min) SampleBrute(r *xrand.Rand) float64 {
	z := m.Base.Sample(r)
	for i := 1; i < m.N; i++ {
		if x := m.Base.Sample(r); x < z {
			z = x
		}
	}
	return z
}

// Support implements dist.Dist (same support as the base law).
func (m Min) Support() (float64, float64) { return m.Base.Support() }

// String implements dist.Dist.
func (m Min) String() string {
	return fmt.Sprintf("Min(n=%d of %s)", m.N, m.Base.String())
}

// Moment returns E[Z(n)ʳ] by quantile-domain quadrature. The
// integrand is evaluated level-by-level in batches: the change of
// variable v → u is applied to the whole level, then the base law's
// quantile is evaluated through dist.Quantiles, which uses the
// family's vectorized QuantileBatch when it has one (lognormal and
// the exponential family — the paper's accepted fits — do).
func Moment(d dist.Dist, n, r int) (float64, error) {
	if n < 1 || r < 1 {
		return 0, fmt.Errorf("%w: moment order r=%d, n=%d", dist.ErrParam, r, n)
	}
	nf := float64(n)
	integrand := func(vs, dst []float64) {
		for i, v := range vs {
			if v >= 1 {
				dst[i] = 0 // overwritten to NaN below; quadrature drops it
				continue
			}
			dst[i] = -math.Expm1(math.Log1p(-v) / nf)
		}
		dist.Quantiles(d, dst, dst)
		if r > 1 {
			rf := float64(r)
			for i, q := range dst {
				dst[i] = math.Pow(q, rf)
			}
		}
		for i, v := range vs {
			if v >= 1 {
				dst[i] = math.NaN()
			}
		}
	}
	return quad.UnitBatch(integrand, integTol)
}

// MeanMin returns E[Z(n)] with the same closed-form fast paths as
// Min.Mean; this is the quantity the speed-up formula divides by.
func MeanMin(d dist.Dist, n int) float64 {
	m := Min{Base: d, N: n}
	return m.Mean()
}

// MeanMinTimeDomain computes E[Z(n)] = n·∫ t·f(t)·(1-F(t))ⁿ⁻¹ dt over
// the support — the paper's literal §3.2 formula. Retained for
// cross-validation and the quantile-vs-time ablation bench; it loses
// accuracy for n ≳ 10³ where the survival power underflows.
func MeanMinTimeDomain(d dist.Dist, n int) (float64, error) {
	lo, hi := d.Support()
	nf := float64(n)
	integrand := func(t float64) float64 {
		f := d.CDF(t)
		if f >= 1 {
			return 0
		}
		surv := math.Exp((nf - 1) * math.Log1p(-f))
		return nf * t * d.PDF(t) * surv
	}
	if math.IsInf(hi, 1) {
		if math.IsInf(lo, -1) {
			lo = d.Quantile(1e-12) // effectively the whole mass
		}
		return quad.ToInfinity(integrand, lo, integTol)
	}
	return quad.TanhSinh(integrand, lo, hi, integTol)
}
