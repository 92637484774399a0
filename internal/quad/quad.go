// Package quad provides the numerical integration routines behind the
// speed-up predictor: double-exponential (tanh-sinh) quadrature for
// integrands with endpoint singularities, its batched form, and the
// transforms onto [0, 1] and semi-infinite intervals.
//
// The paper computes E[Z(n)] — the first moment of the first order
// statistic — either symbolically (exponential family) or "with a
// numerical integration step" (lognormal, via Mathematica). This
// package is the Go replacement for that Mathematica step.
//
// Both tanh-sinh rules read one node table. A node's t-dependent
// factors (e^{2|u|} with u = π/2·sinh t, cosh t and sech u) depend
// only on its refinement level, so each level's nodes are computed
// once, on first use, and shared by every later call on any goroutine;
// a call only maps them onto its interval [a, b]. The 13 levels hold
// 16,385 nodes (~390 KB) when all are built; a call that converges at
// level 3, as a predict's E[Z(n)] does, builds levels 0–3 only.
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

const (
	// tmax bounds the trapezoid's t axis: past it the double-exponential
	// decay e^{-π/2·sinh 4} ≈ 3e-19 leaves nothing.
	tmax = 4.0
	// maxLevel is the last step-halving level, h = 2^-12.
	maxLevel = 12
)

// node holds the t-dependent factors of the abscissa pair ±t. The
// pair shares them bit for bit, because sinh is odd and exp of the
// doubled |u| and cosh are even in t; only the anchoring endpoint
// differs.
type node struct {
	e    float64 // e^{2|u|}, u = π/2·sinh t
	c    float64 // cosh t
	sech float64 // 1/cosh u
}

var (
	levelOnce  [maxLevel + 1]sync.Once
	levelNodes [maxLevel + 1][]node
)

// levelTable returns the nodes level lv adds to the trapezoid: at
// level 0, t = 0 first and then t = 1, …, 4; at level lv ≥ 1, the odd
// multiples of h = 2^-lv up to tmax, ascending. Each t > 0 stands for
// the pair ±t. A level is built on first use and read-only afterwards.
func levelTable(lv int) []node {
	levelOnce[lv].Do(func() {
		h := 1.0
		for range lv {
			h /= 2
		}
		step := 2 * h
		var ns []node
		if lv == 0 {
			ns = append(ns, newNode(0))
			step = h
		}
		for t := h; t <= tmax; t += step {
			ns = append(ns, newNode(t))
		}
		levelNodes[lv] = ns
	})
	return levelNodes[lv]
}

// newNode computes the factors of t ≥ 0.
func newNode(t float64) node {
	u := math.Pi / 2 * math.Sinh(t)
	return node{e: math.Exp(2 * u), c: math.Cosh(t), sech: 1 / math.Cosh(u)}
}

// interval maps table nodes onto [a, b]: x = mid + half·tanh u with
// weight half·π/2·cosh t·sech²u. The abscissa is anchored to the
// nearer endpoint so that the distance to it keeps full relative
// precision — evaluating f(mid + half·tanh u) directly destroys
// endpoint-singular integrands by cancellation.
type interval struct {
	a, b float64
	h2   float64 // 2·half
	hw   float64 // half·π/2
}

func newInterval(a, b float64) interval {
	half := (b - a) / 2
	return interval{a: a, b: b, h2: half * 2, hw: half * math.Pi / 2}
}

// at returns the abscissae of n's pair, −t anchored to a
// (1 + tanh u = 2/(1+e^{-2u})) and +t anchored to b
// (1 − tanh u = 2/(1+e^{2u})), and their common weight.
func (iv *interval) at(n *node) (left, right, w float64) {
	d := iv.h2 / (1 + n.e)
	return iv.a + d, iv.b - d, iv.hw * n.c * n.sech * n.sech
}

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
	iv := newInterval(a, b)
	g := func(x, w float64) float64 {
		if w == 0 || math.IsInf(x, 0) {
			return 0
		}
		v := f(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0 // integrable endpoint singularity: weight kills it
		}
		return v * w
	}
	// levelSum adds f·w over level lv's new abscissae, +t before −t.
	levelSum := func(lv int) float64 {
		ns := levelTable(lv)
		sum := 0.0
		if lv == 0 {
			left, _, w := iv.at(&ns[0])
			sum = g(left, w)
			ns = ns[1:]
		}
		for i := range ns {
			left, right, w := iv.at(&ns[i])
			sum += g(right, w) + g(left, w)
		}
		return sum
	}
	// Trapezoid on t ∈ [-tmax, tmax], halving h until converged.
	h := 1.0
	prev := h * levelSum(0)
	for level := 1; level <= maxLevel; level++ {
		h /= 2
		// Add only the new (odd) abscissae of this level.
		cur := prev/2 + h*levelSum(level)
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

// batchScratch holds the per-level abscissa/weight/value buffers of
// TanhSinhBatch; pooled so steady-state batched integration does not
// allocate (the kernel's hot-path rule).
type batchScratch struct {
	xs, ws, vs []float64
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
	iv := newInterval(a, b)
	scratch := batchPool.Get().(*batchScratch)
	defer batchPool.Put(scratch)
	xs, ws, vs := scratch.xs, scratch.ws, scratch.vs
	defer func() { scratch.xs, scratch.ws, scratch.vs = xs, ws, vs }()
	// keep gathers one abscissa, dropping zero-weight and non-finite
	// nodes exactly as the scalar rule does.
	keep := func(x, w float64) {
		if w == 0 || math.IsInf(x, 0) {
			return
		}
		xs = append(xs, x)
		ws = append(ws, w)
	}
	// level evaluates level lv's new abscissae, +t before −t, in one
	// batch call and returns Σ w·f(x).
	level := func(lv int) float64 {
		xs, ws = xs[:0], ws[:0]
		ns := levelTable(lv)
		if lv == 0 {
			left, _, w := iv.at(&ns[0])
			keep(left, w)
			ns = ns[1:]
		}
		for i := range ns {
			left, right, w := iv.at(&ns[i])
			keep(right, w)
			keep(left, w)
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
	prev := h * level(0)
	for lv := 1; lv <= maxLevel; lv++ {
		h /= 2
		cur := prev/2 + h*level(lv)
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
