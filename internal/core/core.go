// Package core implements the paper's primary contribution: the
// probabilistic prediction of independent multi-walk parallel
// speed-ups from the sequential runtime distribution of a Las Vegas
// algorithm.
//
// Given the law Y of the sequential runtime, the parallel runtime on
// n cores is Z(n) = min(X₁..Xₙ) with Xᵢ i.i.d. ~ Y (Definition 2 of
// the paper), and the predicted speed-up is
//
//	G(n) = E[Y] / E[Z(n)].
//
// A Predictor wraps any dist.Dist — a parametric family fitted with
// internal/fit, or a nonparametric empirical dist.Step built straight from
// observed runtimes ("plug-in" prediction). Closed forms are used
// where the paper derives them:
//
//   - shifted exponential: G(n) = (x0 + 1/λ)/(x0 + 1/(nλ)),
//     limit G(∞) = 1 + 1/(x0·λ), tangent at origin x0·λ + 1;
//   - unshifted exponential: G(n) = n, the linear-speed-up case;
//
// all other families go through the order-statistic moment integrals
// of internal/orderstat, the exact computational device (Nadarajah
// 2008) the paper cites for the lognormal case.
package core

import (
	"errors"
	"fmt"
	"math"

	"lasvegas/internal/dist"
	"lasvegas/internal/orderstat"
)

// ErrInvalid reports an unusable predictor configuration.
var ErrInvalid = errors.New("core: invalid predictor")

// Predictor computes parallel speed-up predictions for a Las Vegas
// algorithm whose sequential runtime follows Y.
type Predictor struct {
	y     dist.Dist
	meanY float64
}

// NewPredictor builds a predictor from the sequential runtime law.
// It fails when E[Y] is not finite and positive (e.g. the Lévy law,
// whose expected runtime is infinite — no finite speed-up prediction
// exists for it).
func NewPredictor(y dist.Dist) (*Predictor, error) {
	if y == nil {
		return nil, fmt.Errorf("%w: nil distribution", ErrInvalid)
	}
	m := y.Mean()
	if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
		return nil, fmt.Errorf("%w: E[Y]=%v is not a positive finite runtime", ErrInvalid, m)
	}
	return &Predictor{y: y, meanY: m}, nil
}

// NewEmpirical builds a plug-in predictor directly from observed
// sequential runtimes, with no distributional assumption.
func NewEmpirical(sample []float64) (*Predictor, error) {
	e, err := dist.NewEmpirical(sample)
	if err != nil {
		return nil, err
	}
	return NewPredictor(e)
}

// Dist returns the underlying runtime distribution.
func (p *Predictor) Dist() dist.Dist { return p.y }

// SequentialMean returns E[Y].
func (p *Predictor) SequentialMean() float64 { return p.meanY }

// ParallelMean returns E[Z(n)], the expected multi-walk runtime on n
// cores.
func (p *Predictor) ParallelMean(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("%w: n=%d cores", ErrInvalid, n)
	}
	if n == 1 {
		return p.meanY, nil
	}
	e := orderstat.MeanMin(p.y, n)
	if math.IsNaN(e) {
		return 0, fmt.Errorf("core: E[Z(%d)] did not evaluate", n)
	}
	return e, nil
}

// Speedup returns the predicted speed-up G(n) = E[Y]/E[Z(n)].
func (p *Predictor) Speedup(n int) (float64, error) {
	ez, err := p.ParallelMean(n)
	if err != nil {
		return 0, err
	}
	return p.SpeedupFor(ez), nil
}

// SpeedupFor returns G = E[Y]/ez for an E[Z(n)] = ez that
// ParallelMean returned, so a caller that needs both E[Z(n)] and G(n)
// evaluates E[Z(n)] once and gets Speedup(n) bit for bit.
func (p *Predictor) SpeedupFor(ez float64) float64 {
	if ez <= 0 {
		// Happens when the runtime law allows instantaneous success
		// with positive probability and n is astronomically large, or
		// when a law with negative support (a gaussian fit) puts
		// E[Z(n)] below zero; report infinite speed-up rather than
		// dividing by 0 or returning a negative G.
		return math.Inf(1)
	}
	return p.meanY / ez
}

// Limit returns lim_{n→∞} G(n). Since E[Z(n)] decreases to the
// essential infimum of Y (the left edge x0 of the support),
//
//	G(∞) = E[Y]/x0   (x0 > 0),   G(∞) = +Inf   (x0 = 0).
//
// For the shifted exponential this reduces to the paper's
// 1 + 1/(x0·λ).
func (p *Predictor) Limit() float64 {
	lo, _ := p.y.Support()
	if lo < 0 {
		lo = 0 // runtimes are non-negative; gaussian fits are truncated in spirit
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return p.meanY / lo
}

// TangentAtOrigin returns the initial slope of the speed-up curve,
// the paper's indicator of "speed-up at a small number of cores".
// For the shifted exponential it is the closed form x0·λ + 1; other
// families use the two-point finite difference G(2) − G(1).
func (p *Predictor) TangentAtOrigin() float64 {
	if se, ok := p.y.(dist.ShiftedExponential); ok {
		return se.Shift*se.Rate + 1
	}
	g2, err := p.Speedup(2)
	if err != nil {
		return math.NaN()
	}
	return g2 - 1
}

// Linear reports whether the prediction is exactly linear speed-up
// (G(n) = n), i.e. the unshifted exponential case of §3.3.
func (p *Predictor) Linear() bool {
	se, ok := p.y.(dist.ShiftedExponential)
	return ok && se.Shift == 0
}

// MinDist returns the full predicted law of the parallel runtime
// Z(n), usable for plotting (Figures 1, 2, 4) or for risk measures
// beyond the mean (quantiles of the parallel runtime).
func (p *Predictor) MinDist(n int) (dist.Dist, error) {
	switch b := p.y.(type) {
	case dist.ShiftedExponential:
		if n >= 1 {
			return b.MinDist(n), nil
		}
	case dist.Weibull:
		if n >= 1 {
			return b.MinDist(n), nil
		}
	}
	m, err := orderstat.NewMin(p.y, n)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Efficiency returns G(n)/n, the parallel efficiency of the
// prediction.
func (p *Predictor) Efficiency(n int) (float64, error) {
	g, err := p.Speedup(n)
	if err != nil {
		return 0, err
	}
	return g / float64(n), nil
}

// CoresForSpeedup returns the smallest n with G(n) >= target, or an
// error if the target exceeds the limit G(∞) or is NaN or +Inf (no
// core count reaches those, so the search would only run out at its
// 2^24 cap). It exploits the monotonicity of G (doubling search +
// bisection), giving capacity planners the inverse question: "how
// many cores to go k× faster?".
func (p *Predictor) CoresForSpeedup(target float64) (int, error) {
	if math.IsNaN(target) || math.IsInf(target, 1) {
		return 0, fmt.Errorf("core: target speed-up %v is not a finite number", target)
	}
	if target <= 1 {
		return 1, nil
	}
	if lim := p.Limit(); !math.IsInf(lim, 1) && target > lim {
		return 0, fmt.Errorf("core: target speed-up %.3g exceeds limit %.3g", target, lim)
	}
	hi := 1
	for {
		g, err := p.Speedup(hi)
		if err != nil {
			return 0, err
		}
		if g >= target {
			break
		}
		if hi > 1<<24 {
			return 0, fmt.Errorf("core: target speed-up %.3g unreachable below 2^24 cores", target)
		}
		hi *= 2
	}
	lo := hi / 2
	if lo < 1 {
		lo = 1
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		g, err := p.Speedup(mid)
		if err != nil {
			return 0, err
		}
		if g >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
