package ks

import (
	"fmt"

	"lasvegas/internal/xrand"
)

// uniform is the continuous uniform law on [lo, hi], a test oracle
// whose CDF is known exactly at every point.
type uniform struct{ lo, hi float64 }

func (u uniform) CDF(x float64) float64 {
	switch {
	case x <= u.lo:
		return 0
	case x >= u.hi:
		return 1
	}
	return (x - u.lo) / (u.hi - u.lo)
}

func (u uniform) PDF(x float64) float64 {
	if x < u.lo || x > u.hi {
		return 0
	}
	return 1 / (u.hi - u.lo)
}

func (u uniform) Quantile(p float64) float64 {
	if p <= 0 {
		return u.lo
	}
	if p >= 1 {
		return u.hi
	}
	return u.lo + p*(u.hi-u.lo)
}

func (u uniform) Mean() float64 { return 0.5 * (u.lo + u.hi) }

func (u uniform) Var() float64 { return (u.hi - u.lo) * (u.hi - u.lo) / 12 }

func (u uniform) Sample(r *xrand.Rand) float64 { return u.lo + r.Float64()*(u.hi-u.lo) }

func (u uniform) Support() (float64, float64) { return u.lo, u.hi }

func (u uniform) String() string { return fmt.Sprintf("Uniform(%.6g, %.6g)", u.lo, u.hi) }
