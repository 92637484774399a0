package policy

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// maxAttempts bounds a single replayed campaign: a schedule whose
// cutoffs never reach the law's support would otherwise loop forever.
const maxAttempts = 1 << 20

// SimResult summarizes a replay.
type SimResult struct {
	Reps   int
	Mean   float64 // mean total runtime-to-success across reps
	StdErr float64 // standard error of that mean
}

// Simulate replays policy p against distribution d: each rep draws
// runs by inverse CDF (for an Empirical law this literally resamples
// the campaign's observed runtimes), truncates every run at the
// schedule's cutoff, and accumulates cost until a run finishes within
// its cutoff. The xrand stream makes the replay deterministic per
// seed — the independent Monte Carlo check on the closed-form prices.
func Simulate(d dist.Dist, p Policy, reps int, seed uint64) (SimResult, error) {
	if d == nil {
		return SimResult{}, errors.New("policy: nil distribution")
	}
	if reps <= 0 {
		return SimResult{}, fmt.Errorf("policy: reps %d", reps)
	}
	if err := p.validate(); err != nil {
		return SimResult{}, err
	}
	r := xrand.New(seed)
	var sum, sumsq float64
	for rep := 0; rep < reps; rep++ {
		var t float64
		done := false
		for i := 1; i <= maxAttempts; i++ {
			c := p.CutoffAt(i)
			y := d.Quantile(r.Float64Open())
			if y <= c {
				t += y
				done = true
				break
			}
			t += c
		}
		if !done {
			return SimResult{}, fmt.Errorf("policy: replay of %s saw no success in %d runs (cutoff below the law's support?)", p.Kind, maxAttempts)
		}
		sum += t
		sumsq += t * t
	}
	nf := float64(reps)
	mean := sum / nf
	variance := sumsq/nf - mean*mean
	if variance < 0 {
		variance = 0
	}
	return SimResult{Reps: reps, Mean: mean, StdErr: math.Sqrt(variance / nf)}, nil
}

// CI is a bootstrap confidence interval on a policy's expected
// runtime. Bounds may be +Inf when a resample puts the whole sample
// above a fixed cutoff.
type CI struct {
	Lo, Hi float64
	Level  float64
}

// maxBootstrapSample caps the per-resample size so sketch-backed
// campaigns with millions of runs bootstrap in bounded time; beyond
// a couple thousand draws the resampling noise, not the cap, is the
// binding uncertainty.
const maxBootstrapSample = 2048

// BootstrapCI prices policy p on `resamples` bootstrap resamples of
// size n drawn from src by inverse CDF (with replacement — the
// standard bootstrap when src is the campaign's Empirical law) and
// returns the percentile interval at the given level. The policy's
// cutoffs stay fixed across resamples: the interval quantifies
// sampling noise in the *price* of a committed schedule, not in the
// schedule choice. Each resample is priced exactly as a unit-weight
// dist.Step over the sorted draws, never by quadrature.
func BootstrapCI(src dist.Dist, n int, p Policy, resamples int, level float64, seed uint64) (CI, error) {
	if src == nil {
		return CI{}, errors.New("policy: nil distribution")
	}
	if n <= 0 {
		return CI{}, fmt.Errorf("policy: bootstrap sample size %d", n)
	}
	if resamples <= 0 {
		return CI{}, fmt.Errorf("policy: resamples %d", resamples)
	}
	if !(level > 0 && level < 1) {
		return CI{}, fmt.Errorf("policy: level %v", level)
	}
	if err := p.validate(); err != nil {
		return CI{}, err
	}
	if n > maxBootstrapSample {
		n = maxBootstrapSample
	}
	r := xrand.New(seed)
	prices := make([]float64, resamples)
	xs := make([]float64, n)
	var law dist.Step // reused: wraps xs without copying it
	for b := 0; b < resamples; b++ {
		for i := range xs {
			xs[i] = src.Quantile(r.Float64Open())
		}
		sort.Float64s(xs)
		law = dist.NewStep(xs, nil, nil, xs[0], xs[n-1])
		v, err := price(&law, p)
		if err != nil {
			// Only the Luby series can error on a step law (unit
			// stuck below the resample's minimum): price it infinite
			// rather than aborting the whole interval.
			v = math.Inf(1)
		}
		prices[b] = v
	}
	sort.Float64s(prices)
	alpha := (1 - level) / 2
	ranked := dist.NewStep(prices, nil, nil, prices[0], prices[resamples-1])
	return CI{Lo: ranked.Quantile(alpha), Hi: ranked.Quantile(1 - alpha), Level: level}, nil
}
