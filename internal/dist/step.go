package dist

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lasvegas/internal/xrand"
)

// Step is a step law: all probability mass sits on finitely many
// ascending atoms. It is the one implementation behind every
// sample-backed law in the repository, which differ only in the mass
// each atom carries:
//
//   - the empirical law of a campaign (NewEmpirical) — the paper's
//     "plug-in" alternative to fitting a family (§6) — puts 1/m on
//     every observation;
//   - the Kaplan–Meier law (internal/survival) puts the product-limit
//     steps on its events;
//   - a quantile sketch (internal/sketch) puts its 2^h compactor
//     weights on the retained items.
//
// Masses are kept in rank units: cum[i] is the mass of atoms 0..i and
// the total is W = cum[m-1]. A nil cum means unit weights (W = m), so
// a plain sample stays one array. Integer weights are exact in these
// units, which is why a sketch weight of 2^h behaves exactly like 2^h
// duplicated atoms, and why unit-weight laws from any source run the
// same code and agree bit for bit. An explicit survival array (the
// Kaplan–Meier law after its first censoring, with W = 1) replaces
// the survival (W − cum)/W, and the masses become its steps: the
// running product-limit survival is not an exact ratio, and the
// survival powers of MinExpectation must read it unrounded.
//
// The sorted atoms buy the hot paths:
//
//   - CDF is a binary search;
//   - Quantile is a single index computation on unit weights (O(1)),
//     which makes the min-sampling identity Z(n) = Q(1-(1-U)^{1/n})
//     an O(1) draw — the engine behind multiwalk.Simulate at 8192
//     cores — and a binary search in rank space (cum ≥ p·W) otherwise;
//   - MinExpectation and TruncatedMean are exact one-pass sums instead
//     of quadrature or Monte Carlo;
//   - AtomIndex maps a uniform draw to the atom Quantile returns, in
//     O(1) expected time on weights too (a Chen–Asau guide table), so
//     bootstrap and replay draws can be counted per atom.
//
// A Step is read-only after construction and safe for concurrent use.
type Step struct {
	xs     []float64 // ascending atoms
	cum    []float64 // cumulative mass in rank units; nil: unit weights
	surv   []float64 // survival after each atom; nil: (w − cum)/w
	w      float64   // total mass W
	lo, hi float64   // support edges
	mean   float64
}

// NewEmpirical copies and sorts the sample into a unit-weight step
// law; it fails on empty samples and non-finite observations.
func NewEmpirical(sample []float64) (*Step, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("%w: empty sample", ErrParam)
	}
	for _, x := range sample {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: non-finite observation %v", ErrParam, x)
		}
	}
	sorted := slices.Clone(sample)
	sort.Float64s(sorted)
	s := NewStep(sorted, nil, nil, sorted[0], sorted[len(sorted)-1])
	return &s, nil
}

// NewStep wraps ascending atoms xs without copying any slice; the
// caller must not mutate them while the law is in use. cum and surv
// are as documented on Step, either may be nil, and lo and hi are the
// support edges Quantile(0) and Quantile(1) return. Only the mean is
// computed here; Var makes its own pass when asked.
func NewStep(xs, cum, surv []float64, lo, hi float64) Step {
	s := Step{xs: xs, cum: cum, surv: surv, w: float64(len(xs)), lo: lo, hi: hi}
	if cum != nil {
		s.w = cum[len(cum)-1]
	}
	var sum float64
	for i, x := range xs {
		sum += x * s.mass(i)
	}
	s.mean = sum / s.w
	return s
}

// rank returns the mass of atoms 0..i in rank units.
func (s *Step) rank(i int) float64 {
	if s.cum == nil {
		return float64(i + 1)
	}
	return s.cum[i]
}

// mass returns the mass of atom i in rank units.
func (s *Step) mass(i int) float64 {
	switch {
	case s.surv != nil:
		if i == 0 {
			return 1 - s.surv[0]
		}
		return s.surv[i-1] - s.surv[i]
	case s.cum != nil:
		if i == 0 {
			return s.cum[0]
		}
		return s.cum[i] - s.cum[i-1]
	}
	return 1
}

// survival returns P(X > xs[i]).
func (s *Step) survival(i int) float64 {
	if s.surv != nil {
		return s.surv[i]
	}
	return (s.w - s.rank(i)) / s.w
}

// Len returns the number of atoms (the sample size m of an empirical
// law).
func (s *Step) Len() int { return len(s.xs) }

// Sorted returns the ascending atoms; callers must not mutate them.
func (s *Step) Sorted() []float64 { return s.xs }

// CDF implements Dist: the mass of the atoms <= x, by binary search.
func (s *Step) CDF(x float64) float64 {
	// First index with xs[i] > x == count of atoms <= x.
	n := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
	if n == 0 {
		return 0
	}
	return s.rank(n-1) / s.w
}

// PDF implements Dist with a central finite difference of the step
// CDF — a crude density estimate, sufficient for plotting; prediction
// only consumes the CDF, quantile and min-expectation. The window
// shrinks with the number of observations behind the law.
func (s *Step) PDF(x float64) float64 {
	span := s.hi - s.lo
	if span == 0 {
		if x == s.lo {
			return math.Inf(1)
		}
		return 0
	}
	obs := s.w // rank units count observations
	if s.surv != nil {
		obs = float64(len(s.xs)) // probability masses: one atom per observation
	}
	h := span / math.Sqrt(obs)
	return (s.CDF(x+h) - s.CDF(x-h)) / (2 * h)
}

// Quantile implements Dist: inf{x : CDF(x) ≥ p}, searched in rank
// space as QuantileRank(p·W); p=0 and p=1 map to the support edges.
// On unit weights this is x_(⌈p·m⌉), an O(1) index computation.
func (s *Step) Quantile(p float64) float64 {
	if p <= 0 {
		return s.lo
	}
	if p >= 1 {
		return s.hi
	}
	return s.QuantileRank(p * s.w)
}

// QuantileRank returns the smallest atom whose cumulative mass
// reaches r rank units. Targets computed in rank space (such as the
// integer ranks of a pseudo-sample) never suffer the round-off of a
// division by W.
func (s *Step) QuantileRank(r float64) float64 {
	if s.cum == nil {
		return s.xs[s.clamp(int(math.Ceil(r))-1)]
	}
	return s.xs[s.clamp(sort.SearchFloat64s(s.cum, r))]
}

// clamp bounds an atom index to the atoms.
func (s *Step) clamp(i int) int { return min(max(i, 0), len(s.xs)-1) }

// StepLaw returns the law itself. Estimators that embed a Step
// inherit it, and the sketch implements it, so consumers that work
// atom by atom (the counting bootstrap of internal/policy) can reach
// the atoms behind any step-law source.
func (s *Step) StepLaw() *Step { return s }

// AtomIndex maps a uniform draw u ∈ (0, 1) — the range of
// xrand.Float64Open — to the index of the atom Quantile(u) returns,
// by exactly Quantile's rule: Sorted()[ix.Atom(u)] is bit-identical
// to Quantile(u). On unit weights the index is QuantileRank's O(1)
// ceiling. On weights it starts from a Chen–Asau guide table over the
// rank axis and finishes with a linear scan for the first cumulative
// mass ≥ u·W. The guide entry of a bucket is the first atom whose own
// bucket is at least as high; the bucket map r ↦ ⌊r·m/W⌋ is monotone
// in floating point, so that entry never passes the binary search's
// answer, and the scan lands on it exactly. Expected cost is O(1) per
// draw for m buckets over m atoms.
type AtomIndex struct {
	s     *Step
	guide []int32 // guide[k]: first atom i with bucket(cum[i]) ≥ k
	scale float64 // guide buckets per rank unit
}

// Index builds the law's atom index. The guide table of a weighted
// law reuses buf's capacity when it suffices (buf may be nil); the
// index must not be used after buf is reused.
func (s *Step) Index(buf []int32) AtomIndex {
	ix := AtomIndex{s: s}
	if s.cum == nil {
		return ix
	}
	m := len(s.cum)
	ix.scale = float64(m) / s.w
	ix.guide = slices.Grow(buf[:0], m)[:m]
	i := 0
	for k := range ix.guide {
		for i < m && ix.bucket(s.cum[i]) < k {
			i++
		}
		ix.guide[k] = int32(i)
	}
	return ix
}

// bucket returns the guide bucket of rank r.
func (ix *AtomIndex) bucket(r float64) int {
	return min(int(r*ix.scale), len(ix.guide)-1)
}

// Atom returns the index of the atom Quantile(u) returns, for
// u ∈ (0, 1).
func (ix *AtomIndex) Atom(u float64) int {
	s := ix.s
	r := u * s.w
	if s.cum == nil {
		return s.clamp(int(math.Ceil(r)) - 1)
	}
	i := int(ix.guide[ix.bucket(r)])
	for i < len(s.cum) && s.cum[i] < r {
		i++
	}
	return s.clamp(i)
}

// Mean implements Dist (precomputed).
func (s *Step) Mean() float64 { return s.mean }

// Var implements Dist: the population variance about the mean, in
// one pass.
func (s *Step) Var() float64 {
	var m2 float64
	for i, x := range s.xs {
		d := x - s.mean
		m2 += d * d * s.mass(i)
	}
	return m2 / s.w
}

// Sample implements Dist: a uniform draw over the atoms on unit
// weights, an inverse-CDF draw otherwise.
func (s *Step) Sample(r *xrand.Rand) float64 {
	if s.cum == nil {
		return s.xs[r.Intn(len(s.xs))]
	}
	return s.QuantileRank(r.Float64Open() * s.w)
}

// Support implements Dist.
func (s *Step) Support() (float64, float64) { return s.lo, s.hi }

// String implements Dist.
func (s *Step) String() string {
	return fmt.Sprintf("Empirical(m=%d, mean=%.6g)", len(s.xs), s.mean)
}

// MinExpectation returns the exact expectation of the minimum of n
// i.i.d. draws,
//
//	E[Z(n)] = Σᵢ x₍ᵢ₎ · (Sᵢ₋₁ⁿ − Sᵢⁿ),  Sᵢ = P(X > x₍ᵢ₎),
//
// in one O(m) pass — the plug-in predictor's closed form, replacing
// both quadrature and Monte Carlo. It is numerically exact for any n
// (the survival powers only ever shrink).
func (s *Step) MinExpectation(n int) float64 {
	if n <= 1 {
		return s.mean
	}
	nf := float64(n)
	var sum float64
	hi := 1.0 // S₋₁ⁿ
	for i, x := range s.xs {
		lo := math.Pow(s.survival(i), nf)
		sum += x * (hi - lo)
		hi = lo
	}
	return sum
}

// TruncatedMean returns E[min(Y, c)] = Σᵢ min(xᵢ, c)·massᵢ / W exactly
// in one O(m) pass — the expected cost of one run under a restart
// cutoff c, which is what makes restart-policy pricing on step laws
// exact instead of quadrature over a discontinuous CDF.
func (s *Step) TruncatedMean(c float64) float64 {
	var sum float64
	for i, x := range s.xs {
		if x > c {
			x = c
		}
		sum += x * s.mass(i)
	}
	return sum / s.w
}

// MinSample draws one realization of min(X₁..Xₙ) by the inverse-CDF
// identity Z(n) = Q(1-(1-U)^{1/n}) — an O(1) draw on unit weights,
// distribution-identical to taking the minimum of n resamples.
func (s *Step) MinSample(n int, r *xrand.Rand) float64 {
	u := r.Float64Open()
	v := -math.Expm1(math.Log1p(-u) / float64(n))
	return s.Quantile(v)
}
