package policy

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

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
	quantile := d.Quantile
	if sd := newStepDraws(d); sd != nil {
		defer sd.release()
		quantile = sd.value
	}
	r := xrand.New(seed)
	var sum, sumsq float64
	for rep := 0; rep < reps; rep++ {
		var t float64
		done := false
		for i := 1; i <= maxAttempts; i++ {
			c := p.CutoffAt(i)
			y := quantile(r.Float64Open())
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
//
// A resample of a step law (dist.Step, Kaplan–Meier, a sketch) is a
// multiset of its atoms, so it is counted rather than sorted: each
// draw maps to its atom by Quantile's own rule (dist.AtomIndex), and
// the counts expand in atom order into exactly the buffer sorting the
// drawn quantiles would give, bit for bit. Smooth laws sort.
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
	sd := newStepDraws(src)
	if sd != nil {
		defer sd.release()
	}
	for b := 0; b < resamples; b++ {
		if sd != nil {
			sd.resample(xs, r)
		} else {
			for i := range xs {
				xs[i] = src.Quantile(r.Float64Open())
			}
			sort.Float64s(xs)
		}
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

// stepDraws draws from a step law (dist.Step, Kaplan–Meier, a sketch)
// atom by atom: one draw through the law's dist.AtomIndex, or a whole
// sorted resample by counting atoms. Its buffers are pooled, so a
// replay or bootstrap allocates nothing for them once the pool is
// warm.
type stepDraws struct {
	ix     dist.AtomIndex
	atoms  []float64
	counts []int32  // draws per atom; all zero between resamples
	marks  []uint64 // bit i set: counts[i] > 0
	guide  []int32  // backing store of ix's guide table
}

var stepDrawPool = sync.Pool{New: func() any { return new(stepDraws) }}

// newStepDraws takes a stepDraws from the pool and points it at the
// atoms behind d, or returns nil when d is not a step law.
func newStepDraws(d dist.Dist) *stepDraws {
	sl, ok := d.(interface{ StepLaw() *dist.Step })
	if !ok {
		return nil
	}
	st := sl.StepLaw()
	if st == nil {
		return nil
	}
	sd := stepDrawPool.Get().(*stepDraws)
	m := st.Len()
	sd.guide = slices.Grow(sd.guide[:0], m)[:m]
	sd.ix = st.Index(sd.guide)
	sd.atoms = st.Sorted()
	sd.counts = slices.Grow(sd.counts[:0], m)[:m]
	sd.marks = slices.Grow(sd.marks[:0], m/64+1)[:m/64+1]
	return sd
}

// release returns sd to the pool without keeping its law alive.
func (sd *stepDraws) release() {
	sd.ix, sd.atoms = dist.AtomIndex{}, nil
	stepDrawPool.Put(sd)
}

// value returns Quantile(u) of the law, for u ∈ (0, 1).
func (sd *stepDraws) value(u float64) float64 { return sd.atoms[sd.ix.Atom(u)] }

// resample fills dst with len(dst) draws of the law, ascending. The
// marks make the expansion O(len(dst) + m/64), so a large exact
// campaign costs no full pass over its atoms per resample.
func (sd *stepDraws) resample(dst []float64, r *xrand.Rand) {
	for range dst {
		i := sd.ix.Atom(r.Float64Open())
		sd.counts[i]++
		sd.marks[i>>6] |= 1 << (i & 63)
	}
	j := 0
	for w, word := range sd.marks {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			for k := sd.counts[i]; k > 0; k-- {
				dst[j] = sd.atoms[i]
				j++
			}
			sd.counts[i] = 0
		}
		sd.marks[w] = 0
	}
}
