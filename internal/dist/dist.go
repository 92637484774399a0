// Package dist is the performance-first distribution kernel of the
// repository: the runtime-distribution families the paper fits to
// sequential Las Vegas campaigns (§6), the step law behind plug-in
// prediction, and the sampling plumbing shared by every experiment.
//
// Design rules, in order:
//
//  1. Closed forms everywhere one exists. CDF, PDF, Quantile, Mean
//     and Var of every parametric family are analytic; the
//     order-statistic layer (internal/orderstat) only falls back to
//     quadrature when a family genuinely has no closed form (e.g. the
//     mean of a lognormal minimum). Quantiles in particular are hot:
//     the quantile-domain moment integrals and the min-sampling
//     identity Z(n) = Q(1-(1-U)^{1/n}) evaluate them thousands of
//     times per prediction.
//  2. Allocation-free hot paths. Evaluating or sampling a
//     distribution never allocates; SampleN performs the single
//     output allocation.
//  3. Value types. Every parametric law is an immutable value and
//     safe for concurrent use. Every sample-backed law is one Step:
//     sorted atoms with their cumulative masses, read-only (hence also
//     goroutine-safe) after construction. The empirical law
//     (NewEmpirical), the Kaplan–Meier law (internal/survival) and a
//     quantile sketch (internal/sketch) differ only in the atom
//     masses, so no other package re-implements a step-law CDF,
//     quantile, MinExpectation or TruncatedMean.
//
// Numerical conventions: survival-side expressions use Expm1/Log1p to
// stay accurate for extreme parameters (rates of 5.4e-9 and n = 8192
// cores both occur in the paper), and quantile functions accept the
// closed interval [0, 1], mapping the endpoints to the support edges.
package dist

import (
	"errors"

	"lasvegas/internal/xrand"
)

// ErrParam reports an invalid distribution parameter.
var ErrParam = errors.New("dist: invalid parameter")

// Dist is a continuous univariate distribution. Implementations must
// be immutable after construction and safe for concurrent use.
type Dist interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// PDF returns the density at x.
	PDF(x float64) float64
	// Quantile returns inf{x : CDF(x) >= p} for p in [0, 1]; p=0 and
	// p=1 map to the support edges (possibly infinite).
	Quantile(p float64) float64
	// Mean returns E[X] (may be +Inf, e.g. Lévy).
	Mean() float64
	// Var returns Var[X] (may be +Inf).
	Var() float64
	// Sample draws one variate from r.
	Sample(r *xrand.Rand) float64
	// Support returns the essential range (lo, hi) of the law.
	Support() (float64, float64)
	// String renders the law with its parameters.
	String() string
}

// BatchQuantiler is implemented by families whose quantile function
// can be evaluated over a whole batch of probabilities at once,
// skipping the per-point interface dispatch of Dist.Quantile. The
// quantile-domain quadrature of internal/orderstat evaluates hundreds
// of quantiles per integration level, which makes this the hot
// interface for prediction latency (ROADMAP "batched quantile
// evaluation").
type BatchQuantiler interface {
	// QuantileBatch writes Quantile(ps[i]) into dst[i] for every i.
	// ps and dst must have equal length; dst may alias ps.
	QuantileBatch(ps, dst []float64)
}

// Quantiles evaluates d.Quantile over ps into dst, routing through
// the family's QuantileBatch when it has one and falling back to the
// pointwise interface otherwise. dst may alias ps.
func Quantiles(d Dist, ps, dst []float64) {
	if bq, ok := d.(BatchQuantiler); ok {
		bq.QuantileBatch(ps, dst)
		return
	}
	for i, p := range ps {
		dst[i] = d.Quantile(p)
	}
}

// SampleN draws n variates into a fresh slice — the campaign
// synthesizer used by tests, benchmarks and paper-mode experiments.
func SampleN(d Dist, r *xrand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// Every family now inverts its CDF analytically or with an
// initializer-plus-Newton scheme of its own (gamma: Wilson–Hilferty
// starting values); the former generic 200-step bisection fallback is
// gone.
