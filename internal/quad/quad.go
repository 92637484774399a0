// Package quad provides the numerical integration routines behind the
// speed-up predictor: double-exponential (tanh-sinh) quadrature for
// integrands with endpoint singularities, its batched form, and the
// transforms onto [0, 1] and semi-infinite intervals.
//
// The paper computes E[Z(n)] — the first moment of the first order
// statistic — either symbolically (exponential family) or "with a
// numerical integration step" (lognormal, via Mathematica). This
// package is the Go replacement for that Mathematica step.
package quad

import (
	"errors"
	"math"
	"sync"
)

// ErrNoConvergence is reported when tanh-sinh exhausts its budget of
// step-halving levels before two successive levels agree to the
// requested tolerance.
var ErrNoConvergence = errors.New("quad: integration did not converge")

// Func is a scalar integrand.
type Func func(float64) float64

// TanhSinh integrates f over the open interval (a, b) with
// double-exponential quadrature. It tolerates integrable singularities
// at either endpoint, which is exactly the situation for
// quantile-domain integrals ∫₀¹ Q(u)·n(1-u)^{n-1} du where Q diverges
// at u→1 for unbounded distributions.
func TanhSinh(f Func, a, b, tol float64) (float64, error) {
	if a == b {
		return 0, nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	half := (b - a) / 2
	g := func(t float64) float64 {
		// x = mid + half·tanh(π/2·sinh t); weight = derivative. The
		// abscissa is anchored to the nearer endpoint so that the
		// distance to it keeps full relative precision — evaluating
		// f(mid + half·tanh u) directly destroys endpoint-singular
		// integrands by cancellation.
		s := math.Sinh(t)
		c := math.Cosh(t)
		u := math.Pi / 2 * s
		sech := 1 / math.Cosh(u)
		var x float64
		if t <= 0 {
			// 1 + tanh(u) = 2/(1+e^{-2u})
			x = a + half*2/(1+math.Exp(-2*u))
		} else {
			// 1 - tanh(u) = 2/(1+e^{2u})
			x = b - half*2/(1+math.Exp(2*u))
		}
		w := half * math.Pi / 2 * c * sech * sech
		if w == 0 || math.IsInf(x, 0) {
			return 0
		}
		v := f(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0 // integrable endpoint singularity: weight kills it
		}
		return v * w
	}
	// Trapezoid on t ∈ [-tmax, tmax], halving h until converged.
	const tmax = 4.0 // exp-exp decay: e^{-pi/2*sinh(4)} ≈ 3e-19
	h := 1.0
	sum0 := g(0)
	for t := h; t <= tmax; t += h {
		sum0 += g(t) + g(-t)
	}
	prev := h * sum0
	for level := 1; level <= 12; level++ {
		h /= 2
		sum := 0.0
		// Add only the new (odd) abscissae of this level.
		for t := h; t <= tmax; t += 2 * h {
			sum += g(t) + g(-t)
		}
		cur := prev/2 + h*sum
		if level >= 3 && math.Abs(cur-prev) <= tol*(1+math.Abs(cur)) {
			return cur, nil
		}
		prev = cur
	}
	return prev, ErrNoConvergence
}

// BatchFunc evaluates an integrand over a batch of abscissae,
// writing f(xs[i]) into dst[i]. len(dst) == len(xs).
type BatchFunc func(xs, dst []float64)

// batchScratch holds the per-level node/weight/value buffers of
// TanhSinhBatch; pooled so steady-state batched integration does not
// allocate (the kernel's hot-path rule).
type batchScratch struct {
	ts, xs, ws, vs []float64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// TanhSinhBatch is TanhSinh for integrands that are cheaper to
// evaluate in batches (e.g. a batched quantile function): each
// trapezoid refinement level gathers all its new abscissae and makes
// one BatchFunc call. Nodes, weights and refinement schedule are
// identical to TanhSinh, so both converge to the same values.
func TanhSinhBatch(f BatchFunc, a, b, tol float64) (float64, error) {
	if a == b {
		return 0, nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	half := (b - a) / 2
	const tmax = 4.0
	scratch := batchPool.Get().(*batchScratch)
	defer batchPool.Put(scratch)
	xs, ws, vs := scratch.xs, scratch.ws, scratch.vs
	defer func() { scratch.xs, scratch.ws, scratch.vs = xs, ws, vs }()
	// node computes the abscissa/weight pair of parameter t with the
	// same endpoint anchoring as TanhSinh's scalar g.
	node := func(t float64) (x, w float64) {
		s := math.Sinh(t)
		c := math.Cosh(t)
		u := math.Pi / 2 * s
		sech := 1 / math.Cosh(u)
		if t <= 0 {
			x = a + half*2/(1+math.Exp(-2*u))
		} else {
			x = b - half*2/(1+math.Exp(2*u))
		}
		w = half * math.Pi / 2 * c * sech * sech
		return
	}
	// level evaluates the gathered ts in one batch call and returns
	// Σ w·f(x), dropping zero-weight and non-finite nodes exactly as
	// the scalar rule does.
	level := func(ts []float64) float64 {
		xs, ws, vs = xs[:0], ws[:0], vs[:0]
		for _, t := range ts {
			x, w := node(t)
			if w == 0 || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
			ws = append(ws, w)
		}
		if len(xs) == 0 {
			return 0
		}
		if cap(vs) < len(xs) {
			vs = make([]float64, len(xs))
		}
		vs = vs[:len(xs)]
		f(xs, vs)
		var sum float64
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // integrable endpoint singularity
			}
			sum += v * ws[i]
		}
		return sum
	}
	h := 1.0
	ts := append(scratch.ts[:0], 0)
	defer func() { scratch.ts = ts }()
	for t := h; t <= tmax; t += h {
		ts = append(ts, t, -t)
	}
	prev := h * level(ts)
	for lv := 1; lv <= 12; lv++ {
		h /= 2
		ts = ts[:0]
		for t := h; t <= tmax; t += 2 * h {
			ts = append(ts, t, -t)
		}
		cur := prev/2 + h*level(ts)
		if lv >= 3 && math.Abs(cur-prev) <= tol*(1+math.Abs(cur)) {
			return cur, nil
		}
		prev = cur
	}
	return prev, ErrNoConvergence
}

// UnitBatch integrates a batch integrand over [0, 1] with tanh-sinh —
// the batched counterpart of Unit used by the quantile-domain
// order-statistic moments.
func UnitBatch(f BatchFunc, tol float64) (float64, error) {
	return TanhSinhBatch(f, 0, 1, tol)
}

// ToInfinity integrates f over [a, ∞) by mapping x = a + t/(1-t) onto
// t ∈ [0, 1) and applying tanh-sinh (which absorbs the t→1
// singularity of the Jacobian provided f decays).
func ToInfinity(f Func, a, tol float64) (float64, error) {
	g := func(t float64) float64 {
		if t >= 1 {
			return 0
		}
		om := 1 - t
		x := a + t/om
		return f(x) / (om * om)
	}
	return TanhSinh(g, 0, 1, tol)
}

// Unit integrates f over [0, 1] with tanh-sinh; a convenience used by
// the quantile-domain order-statistic moments.
func Unit(f Func, tol float64) (float64, error) { return TanhSinh(f, 0, 1, tol) }
