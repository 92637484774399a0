// Package specfn implements the special functions required by the
// probability layer that the Go standard library does not provide:
// the inverse error function and the standard normal quantile, the
// regularized lower incomplete gamma function, and the digamma and
// trigamma functions.
//
// All routines are classical series/continued-fraction evaluations
// (Abramowitz & Stegun; Numerical Recipes) tuned for float64 and are
// accurate to ~1e-12 relative error on their stated domains, which is
// far tighter than anything the speed-up model needs.
package specfn

import "math"

// ErfInv returns the inverse error function: y with Erf(y) = x,
// for x in (-1, 1). It refines a rational initial estimate with two
// Newton steps, giving ~1e-15 accuracy over the full domain.
func ErfInv(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case x <= -1:
		if x == -1 {
			return math.Inf(-1)
		}
		return math.NaN()
	case x >= 1:
		if x == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	case x == 0:
		return 0
	}
	// Initial estimate via the normal quantile relation:
	// erfinv(x) = Phi^{-1}((x+1)/2) / sqrt(2).
	y := normQuantile((x+1)/2) / math.Sqrt2
	// Two Newton iterations on f(y) = erf(y) - x; f'(y) = 2/sqrt(pi) e^{-y^2}.
	for i := 0; i < 2; i++ {
		e := math.Erf(y) - x
		y -= e * math.Sqrt(math.Pi) / 2 * math.Exp(y*y)
	}
	return y
}

// normQuantile is Acklam's rational approximation to the standard
// normal quantile, |relative error| < 1.15e-9, refined by one Halley
// step to full double precision. Defined here (rather than importing
// the dist package) to keep specfn dependency-free.
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	var q, r, x float64
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q = math.Sqrt(-2 * math.Log(p))
		x = (((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	case p <= pHigh:
		q = p - 0.5
		r = q * q
		x = (((((-3.969683028665376e+01*r+2.209460984245205e+02)*r-2.759285104469687e+02)*r+1.383577518672690e+02)*r-3.066479806614716e+01)*r + 2.506628277459239e+00) * q /
			(((((-5.447609879822406e+01*r+1.615858368580409e+02)*r-1.556989798598866e+02)*r+6.680131188771972e+01)*r-1.328068155288572e+01)*r + 1)
	default:
		q = math.Sqrt(-2 * math.Log(1-p))
		x = -(((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	}
	// One Halley refinement using the exact CDF (erfc form).
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// NormQuantile exposes the refined standard normal quantile.
func NormQuantile(p float64) float64 { return normQuantile(p) }

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a,x)/Γ(a) for a > 0, x >= 0.
func GammaP(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

const (
	seriesEps  = 1e-15
	maxIter    = 500
	tinyFactor = 1e-300
)

// gammaSeries evaluates P(a,x) by its power series (x < a+1).
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*seriesEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a,x) by Lentz's continued fraction (x >= a+1).
func gammaCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tinyFactor
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tinyFactor {
			d = tinyFactor
		}
		c = b + an/c
		if math.Abs(c) < tinyFactor {
			c = tinyFactor
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < seriesEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// Digamma returns ψ(x), the logarithmic derivative of the gamma
// function, for x > 0 (negative non-integer x via reflection).
func Digamma(x float64) float64 {
	if math.IsNaN(x) || (x <= 0 && x == math.Trunc(x)) {
		return math.NaN()
	}
	var result float64
	// Reflection for negative arguments.
	if x < 0 {
		result -= math.Pi / math.Tan(math.Pi*x)
		x = 1 - x
	}
	// Recurrence to push x into the asymptotic region.
	for x < 10 {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion (A&S 6.3.18) through the 1/x^10 term.
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - inv/2 -
		inv2*(1.0/12-inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2/132))))
	return result
}

// Trigamma returns ψ'(x) for x > 0 (used by gamma-distribution MLE
// Newton iterations).
func Trigamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN()
	}
	var result float64
	for x < 10 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// Asymptotic expansion (A&S 6.4.12):
	// 1/x + 1/(2x²) + 1/(6x³) - 1/(30x⁵) + 1/(42x⁷) - 1/(30x⁹) + ...
	result += inv * (1 + inv/2 + inv2*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2/30))))
	return result
}
