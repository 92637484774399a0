// Package ks implements the Kolmogorov–Smirnov goodness-of-fit test
// the paper uses (§6) to decide whether a sequential runtime sample is
// adequately described by a candidate distribution: the one-sample
// statistic against any dist.Dist, the asymptotic Kolmogorov p-value
// with Stephens' finite-n correction, and the two-sample variant used
// by the test-suite to validate samplers against their own CDFs.
//
// Runtime samples are atom-heavy: iteration counts are integers, and a
// sketch's pseudo-sample repeats each retained value many times. Both
// one-sample tests therefore evaluate the CDF (and, for
// Anderson–Darling, its logs) once per distinct value of the sorted
// sample and then run the per-observation arithmetic unchanged, so a
// tied sample gives the same bits as evaluating every observation. A
// sample that is already ascending is read in place, without the
// sorted copy.
package ks

import (
	"errors"
	"math"
	"slices"
	"sort"

	"lasvegas/internal/dist"
)

// ErrEmpty reports an empty sample.
var ErrEmpty = errors.New("ks: empty sample")

// Result is the outcome of a Kolmogorov–Smirnov test.
type Result struct {
	N      int     // sample size (min of the two sizes for two-sample)
	D      float64 // KS statistic sup|F̂ - F|
	PValue float64 // asymptotic p-value (Stephens-corrected)
}

// RejectAt reports whether the null hypothesis "the sample follows
// the distribution" is rejected at significance level alpha (the
// paper uses 0.05).
func (r Result) RejectAt(alpha float64) bool { return r.PValue < alpha }

// OneSample tests sample against the continuous distribution d. The
// CDF is evaluated once per distinct value of the sorted sample.
func OneSample(sample []float64, d dist.Dist) (Result, error) {
	n := len(sample)
	if n == 0 {
		return Result{}, ErrEmpty
	}
	xs := ascending(sample)
	var dmax, f float64
	for i, x := range xs {
		if i == 0 || !sameBits(x, xs[i-1]) {
			f = d.CDF(x)
		}
		upper := float64(i+1)/float64(n) - f
		lower := f - float64(i)/float64(n)
		if upper > dmax {
			dmax = upper
		}
		if lower > dmax {
			dmax = lower
		}
	}
	return Result{N: n, D: dmax, PValue: PValue(dmax, n)}, nil
}

// ascending returns sample in ascending order: the sample itself when
// every adjacent pair is strictly ascending or bit-identical (a sketch
// pseudo-sample, for one), a sorted copy otherwise. Such a sample is
// the only ascending order of its values, so both branches give the
// bits sort.Float64s would.
func ascending(sample []float64) []float64 {
	for i := 1; i < len(sample); i++ {
		if !(sample[i-1] < sample[i]) && !sameBits(sample[i-1], sample[i]) {
			xs := slices.Clone(sample)
			sort.Float64s(xs)
			return xs
		}
	}
	return sample
}

// sameBits reports whether a and b are the same float64 value bit for
// bit, so that any function of them agrees (unlike ==, it tells -0
// from +0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TwoSample tests whether xs and ys come from the same continuous
// distribution.
func TwoSample(xs, ys []float64) (Result, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return Result{}, ErrEmpty
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var i, j int
	var dmax float64
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		// Advance both ECDFs through every observation equal to the
		// smallest unprocessed value before comparing: at a cross-sample
		// tie both distribution functions jump at once, and evaluating
		// mid-jump would report a spurious gap (ties are the norm for
		// multi-walk minima resampled from a finite pool).
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > dmax {
			dmax = diff
		}
	}
	ne := na * nb / (na + nb)
	return Result{N: int(math.Min(na, nb)), D: dmax, PValue: kolmogorovQ(math.Sqrt(ne) * dmax)}, nil
}

// PValue returns the (approximate) p-value of a one-sample KS
// statistic d with n observations, using Stephens' correction
// t = d·(√n + 0.12 + 0.11/√n), accurate to a few permille for n ≥ 5.
func PValue(d float64, n int) float64 {
	if n < 1 || d <= 0 {
		return 1
	}
	if d >= 1 {
		return 0
	}
	sn := math.Sqrt(float64(n))
	t := d * (sn + 0.12 + 0.11/sn)
	return kolmogorovQ(t)
}

// kolmogorovQ is the Kolmogorov survival function
// Q(t) = 2·Σ_{k≥1} (-1)^{k-1}·exp(-2k²t²), with the Jacobi-theta dual
// series used for small t where the alternating series converges
// slowly.
func kolmogorovQ(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t < 1.18 {
		// Dual series: Q = 1 - (√(2π)/t)·Σ_{k odd} exp(-k²π²/(8t²)).
		v := math.Pi * math.Pi / (8 * t * t)
		sum := math.Exp(-v) + math.Exp(-9*v) + math.Exp(-25*v) + math.Exp(-49*v)
		return 1 - math.Sqrt(2*math.Pi)/t*sum
	}
	var sum float64
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k) * float64(k) * t * t)
		if k%2 == 1 {
			sum += term
		} else {
			sum -= term
		}
		if term < 1e-16 {
			break
		}
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}
