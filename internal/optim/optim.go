// Package optim supplies the scalar root finding and low-dimensional
// minimization used for maximum-likelihood fitting and quantile
// inversion: Brent's root finder, Brent's minimizer, golden-section
// search and a compact Nelder–Mead simplex for 2–4 parameter MLEs.
package optim

import (
	"errors"
	"math"
)

// ErrBracket is returned when a root/minimum is not bracketed by the
// supplied interval.
var ErrBracket = errors.New("optim: interval does not bracket a root")

// ErrNoConvergence is returned when the iteration budget is exhausted.
var ErrNoConvergence = errors.New("optim: did not converge")

// BrentRoot finds x in [a, b] with f(x) = 0 given f(a)·f(b) <= 0,
// using Brent's method (inverse quadratic interpolation guarded by
// bisection). tol is an absolute tolerance on x.
func BrentRoot(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrBracket
	}
	if tol <= 0 {
		tol = 1e-12
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for iter := 0; iter < 200; iter++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		const eps = 2.220446049250313e-16 // float64 machine epsilon
		tol1 := 2*eps*math.Abs(b) + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, ErrNoConvergence
}

// golden is the golden ratio section constant.
const golden = 0.3819660112501051

// BrentMin minimizes f over [a, b] with Brent's parabolic
// interpolation method and returns the minimizing x.
func BrentMin(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 1e-10
	}
	x := a + golden*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for iter := 0; iter < 200; iter++ {
		m := (a + b) / 2
		tol1 := tol*math.Abs(x) + 1e-15
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-(b-a)/2 {
			return x, nil
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Parabolic fit through x, v, w.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			if math.Abs(p) < math.Abs(q*e/2) && p > q*(a-x) && p < q*(b-x) {
				e = d
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, m-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = b - x
			} else {
				e = a - x
			}
			d = golden * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u < x {
				b = x
			} else {
				a = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, w = w, u
				fv, fw = fw, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, ErrNoConvergence
}

// NelderMead minimizes f starting from x0 with initial step sizes
// step (same length as x0). It returns the best point found. The
// implementation is the standard reflect/expand/contract/shrink
// simplex with adaptive termination on simplex diameter.
func NelderMead(f func([]float64) float64, x0, step []float64, tol float64, maxIter int) ([]float64, float64, error) {
	n := len(x0)
	if n == 0 || len(step) != n {
		return nil, 0, errors.New("optim: bad NelderMead dimensions")
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 2000
	}
	// Build initial simplex.
	pts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	for i := range pts {
		p := append([]float64(nil), x0...)
		if i > 0 {
			p[i-1] += step[i-1]
		}
		pts[i] = p
		vals[i] = f(p)
	}
	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
	centroid := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		// Order simplex: find best, worst, second-worst.
		best, worst, second := 0, 0, 0
		for i := 1; i <= n; i++ {
			if vals[i] < vals[best] {
				best = i
			}
			if vals[i] > vals[worst] {
				worst = i
			}
		}
		for i := 0; i <= n; i++ {
			if i != worst && vals[i] > vals[second] {
				second = i
			}
		}
		if second == worst { // all equal except worst index coincidence
			second = best
		}
		// Termination: function spread.
		if math.Abs(vals[worst]-vals[best]) <= tol*(math.Abs(vals[best])+tol) {
			return pts[best], vals[best], nil
		}
		// Centroid of all but worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i <= n; i++ {
			if i == worst {
				continue
			}
			for j := range centroid {
				centroid[j] += pts[i][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}
		combine := func(t float64) []float64 {
			p := make([]float64, n)
			for j := range p {
				p[j] = centroid[j] + t*(pts[worst][j]-centroid[j])
			}
			return p
		}
		refl := combine(-alpha)
		fr := f(refl)
		switch {
		case fr < vals[best]:
			exp := combine(-gamma)
			fe := f(exp)
			if fe < fr {
				pts[worst], vals[worst] = exp, fe
			} else {
				pts[worst], vals[worst] = refl, fr
			}
		case fr < vals[second]:
			pts[worst], vals[worst] = refl, fr
		default:
			contr := combine(rho)
			fc := f(contr)
			if fc < vals[worst] {
				pts[worst], vals[worst] = contr, fc
			} else {
				// Shrink toward best.
				for i := 0; i <= n; i++ {
					if i == best {
						continue
					}
					for j := range pts[i] {
						pts[i][j] = pts[best][j] + sigma*(pts[i][j]-pts[best][j])
					}
					vals[i] = f(pts[i])
				}
			}
		}
	}
	best := 0
	for i := 1; i <= n; i++ {
		if vals[i] < vals[best] {
			best = i
		}
	}
	return pts[best], vals[best], ErrNoConvergence
}
