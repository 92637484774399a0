// Package stats provides the descriptive statistics, empirical
// distribution functions and histograms used to analyse sequential
// runtime campaigns (Tables 1–2 and the histogram Figures 8/10/12 of
// the paper).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (NaN for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element (NaN for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the p-quantile of xs (linear interpolation between
// order statistics, the R type-7 default). p outside [0,1] is clamped.
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Summary bundles the row shape of the paper's Tables 1 and 2.
type Summary struct {
	N      int
	Min    float64
	Mean   float64
	Median float64
	Max    float64
	StdDev float64
}

// Summarize computes the Table-1/2 statistics of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Min:    Min(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Max:    Max(xs),
		StdDev: StdDev(xs),
	}
}

// Histogram is a uniform-bin density histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram bins xs into bins uniform cells spanning [min, max].
// The last cell is closed so the maximum lands inside. Returns an
// error for empty input or bins < 1.
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if bins < 1 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		hi = lo + 1 // degenerate sample: single cell of width 1
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
		h.total++
	}
	return h, nil
}

// BinWidth returns the uniform cell width.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// Center returns the midpoint of bin i.
func (h *Histogram) Center(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the normalized density of bin i, so that the
// histogram integrates to 1 (comparable with a PDF overlay, as in the
// paper's Figures 8, 10 and 12).
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.total) * h.BinWidth())
}

// LinearFit returns the least-squares line y = intercept + slope·x.
// It needs at least two points with distinct x values.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, errors.New("stats: LinearFit needs ≥2 paired points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: LinearFit with constant x")
	}
	slope = sxy / sxx
	return slope, my - slope*mx, nil
}

// FreedmanDiaconisBins suggests a bin count via the Freedman–Diaconis
// rule, clamped to [min 5, max 200].
func FreedmanDiaconisBins(xs []float64) int {
	n := len(xs)
	if n < 2 {
		return 5
	}
	iqr := Quantile(xs, 0.75) - Quantile(xs, 0.25)
	if iqr <= 0 {
		return 5
	}
	width := 2 * iqr / math.Cbrt(float64(n))
	span := Max(xs) - Min(xs)
	bins := int(math.Ceil(span / width))
	if bins < 5 {
		bins = 5
	}
	if bins > 200 {
		bins = 200
	}
	return bins
}
