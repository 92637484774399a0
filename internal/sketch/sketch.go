// Package sketch provides a mergeable quantile sketch for folding an
// unbounded stream of sequential runtimes into O(k·log(n/k)) memory —
// the streaming counterpart of dist.NewEmpirical, built so a long-running
// lvserve can ingest campaigns of millions of runs without ever
// materializing the sample.
//
// # Why a KLL-style compactor hierarchy, not a t-digest
//
// Two mergeable sketches dominate practice: the t-digest (centroid
// clustering, great relative accuracy at the tails) and the
// KLL/Manku–Rajagopalan–Lindsay family (a hierarchy of fixed-capacity
// compactors). This package implements the compactor hierarchy, for
// two reasons that matter here more than tail-relative accuracy:
//
//  1. Guaranteed rank-error bounds. A compactor sketch carries a
//     worst-case uniform rank-error guarantee (derived below) that
//     holds for every input, including the atom-heavy tied samples
//     iteration counts produce. A t-digest's accuracy is empirical —
//     its clustering invariant bounds centroid sizes, not the rank
//     error of an adversarial stream — and the speed-up predictor's
//     min-expectation integrates exactly the quantile region where we
//     need a provable bound.
//  2. Byte-stable determinism. t-digest merging depends on centroid
//     ordering and floating-point averaging, so shard merges are not
//     reproducible across orderings. Here compaction is fully
//     deterministic (order the level, then keep every other item, the
//     surviving parity alternating with a per-level counter), every
//     level is a plain slice written sorted, and the canonical JSON
//     depends only on the retained multiset — replicas that fold the
//     same stream, in any chunking, serve byte-identical sketches.
//
// # Structure
//
// Level h holds items of weight 2^h. New observations append to level
// 0; when a level reaches the capacity k it is compacted: sorted, and
// every other item is promoted with doubled weight to level h+1
// (alternating the surviving parity so consecutive compactions cancel
// rather than accumulate bias). The retained size is at most
// k·⌈log2(n/k)+1⌉ items regardless of the stream length n.
//
// Every promotion is an ascending run, so a level above 0 reaches
// capacity holding only a leftover and two runs. Compaction merges a
// level of at most a few ascending runs, and sorts every other level
// (level 0 holds the stream in arrival order) by an LSD radix sort on
// order-preserving integer keys that skips every byte the whole level
// shares — iteration counts leave most low mantissa bytes zero. On
// finite values the ascending order is unique except for -0 against
// +0, so both give the bits of sort.Float64s, which a level holding
// both signed zeros keeps. Scratch buffers are pooled: a stored
// sketch holds only its levels.
//
// Queries read the retained items as one dist.Step, each item carrying
// its weight 2^h. The step law is built once per state by merging the
// levels, each in sorted order, by (value, level) — the (value,
// weight) order, since 2^h grows with h — and a Clone shares a law
// already built. While no compaction has happened (n ≤ k) the sketch
// is in "exact mode": it is the full sample, every weight is 1, and
// every query — CDF, Quantile, Mean, Var, MinExpectation,
// TruncatedMean — runs the same code as dist.NewEmpirical on the same
// observations, so the two agree bit for bit.
//
// # Rank-error bound
//
// Compacting a level of weight w = 2^h perturbs the rank of any query
// point by at most w (each surviving item stands for itself and its
// dropped neighbour; the parity trick makes errors of consecutive
// compactions alternate in sign, but we do not rely on that
// cancellation for the guarantee). A stream of n items triggers at
// most C_h ≈ n/(k·2^h) compactions at level h, so the total rank
// error is at most
//
//	Σ_h C_h · 2^h  ≤  n·H/k,  H = number of compacting levels ≈ log2(n/k),
//
// i.e. a relative rank error ε ≤ H/k. The sketch tracks its per-level
// compaction counts and ErrorBound reports the exact conservative
// bound Σ_h C_h·2^h / n for the stream it actually saw — 0 in exact
// mode, ~0.5% for k=1024 at n=10⁶. Merging concatenates levels and
// re-compacts, so a merged sketch's bound is the sum of its parents'
// plus whatever the re-compaction adds: Merge is associative and
// order-insensitive up to that documented bound (and byte-identical
// under reordering: the canonical form depends only on the retained
// multiset, and a⊕b and b⊕a retain the same one).
//
// # Wire form
//
// MarshalJSON writes the canonical JSON without reflection, byte for
// byte as encoding/json would marshal it, writing a level that is
// already ascending (as every level read back from the wire is) in
// place. UnmarshalJSON reads that canonical shape directly and hands
// any other to encoding/json. Both paths validate alike: finite
// values, the weight invariant, and the support — every retained
// value inside [min, max], and in exact mode min and max the smallest
// and largest retained values — so no input decodes to a law whose
// quantiles fall or whose mean leaves its support.
//
// A Sketch is NOT safe for concurrent mutation; concurrent readers
// are safe once ingestion is done (query caches build through a
// sync.Once that mutators reset).
package sketch

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// DefaultK is the default compactor capacity: rank error ≈
// log2(n/k)/k ≈ 1% at a billion observations, in ~a hundred KB.
const DefaultK = 1024

// SchemaVersion is the canonical JSON schema version written by
// MarshalJSON; readers accept every version up to this one.
const SchemaVersion = 1

// ErrSketch reports an invalid sketch parameter, state or merge.
var ErrSketch = errors.New("sketch: invalid")

// Sketch is a deterministic KLL-style mergeable quantile sketch (see
// the package documentation). The zero value is not usable; call New.
type Sketch struct {
	k           int
	n           uint64
	min, max    float64
	levels      [][]float64 // levels[h] holds items of weight 2^h
	compactions []uint64    // per-level compaction counts (parity + error bound)

	once *sync.Once                // guards st; replaced by invalidate() after mutations
	st   atomic.Pointer[dist.Step] // query cache: the retained items as a step law
}

// builtOnce is a fired sync.Once: the guard of a sketch whose step
// law was carried over, already built, by Clone.
var builtOnce = func() *sync.Once {
	o := new(sync.Once)
	o.Do(func() {})
	return o
}()

// New returns an empty sketch with compactor capacity k (k ≤ 0 means
// DefaultK). k must be an even number ≥ 8; sketches merge only with
// sketches of the same k.
func New(k int) (*Sketch, error) {
	if k <= 0 {
		k = DefaultK
	}
	if k < 8 || k%2 != 0 {
		return nil, fmt.Errorf("%w: capacity k=%d must be an even number ≥ 8", ErrSketch, k)
	}
	return &Sketch{
		k:           k,
		min:         math.Inf(1),
		max:         math.Inf(-1),
		levels:      [][]float64{nil},
		compactions: []uint64{0},
		once:        new(sync.Once),
	}, nil
}

// K returns the compactor capacity.
func (s *Sketch) K() int { return s.k }

// N returns the number of observations folded in.
func (s *Sketch) N() uint64 { return s.n }

// Retained returns the number of items the sketch actually stores —
// at most k·⌈log2(n/k)+1⌉, the bound the streaming-ingest tests
// assert against.
func (s *Sketch) Retained() int {
	total := 0
	for _, lv := range s.levels {
		total += len(lv)
	}
	return total
}

// ErrorBound returns the conservative worst-case relative rank error
// of the stream folded so far: Σ_h compactions[h]·2^h / n. It is 0 in
// exact mode and grows with log2(n/k)/k.
func (s *Sketch) ErrorBound() float64 {
	if s.n == 0 {
		return 0
	}
	var errW float64
	for h, c := range s.compactions {
		errW += float64(c) * float64(uint64(1)<<uint(h))
	}
	return errW / float64(s.n)
}

// Exact reports whether the sketch still holds the full sample (no
// compaction has happened), in which case every query is bit-identical
// to dist.NewEmpirical on the same observations.
func (s *Sketch) Exact() bool {
	for _, c := range s.compactions {
		if c > 0 {
			return false
		}
	}
	return true
}

// Add folds one observation; it fails on non-finite values.
func (s *Sketch) Add(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%w: non-finite observation %v", ErrSketch, x)
	}
	s.levels[0] = append(s.levels[0], x)
	s.n++
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if len(s.levels[0]) >= s.k {
		s.compact(0)
	}
	s.invalidate()
	return nil
}

// invalidate drops the lazily-built step law after a mutation. The
// sync.Once is replaced only when a law was actually built: under
// the documented contract (writers serialized against readers) an
// unfired Once with no law is still fresh, which keeps a pure
// ingest loop — millions of Adds, no queries — allocation-free here.
func (s *Sketch) invalidate() {
	if s.st.Load() != nil {
		s.st.Store(nil)
		s.once = new(sync.Once)
	}
}

// AddAll folds a whole sample in order.
func (s *Sketch) AddAll(xs []float64) error {
	for _, x := range xs {
		if err := s.Add(x); err != nil {
			return err
		}
	}
	return nil
}

// compact halves level h: sort, keep items of the alternating parity
// at weight 2^(h+1) on level h+1, drop the rest. An odd-sized level
// leaves its largest item in place (no rank error for it). Cascades
// while the promotion fills higher levels to capacity.
func (s *Sketch) compact(h int) {
	for ; h < len(s.levels) && len(s.levels[h]) >= s.k; h++ {
		buf := s.levels[h]
		sortLevel(buf)
		var leftover float64
		hasLeftover := len(buf)%2 == 1
		if hasLeftover {
			leftover = buf[len(buf)-1]
			buf = buf[:len(buf)-1]
		}
		start := 0
		if s.compactions[h]%2 == 1 {
			start = 1
		}
		if len(s.levels) <= h+1 {
			s.levels = append(s.levels, nil)
			s.compactions = append(s.compactions, 0)
		}
		for i := start; i < len(buf); i += 2 {
			s.levels[h+1] = append(s.levels[h+1], buf[i])
		}
		s.compactions[h]++
		s.levels[h] = s.levels[h][:0]
		if hasLeftover {
			s.levels[h] = append(s.levels[h], leftover)
		}
	}
}

// Clone returns an independent copy of the sketch. A step law the
// sketch has already built is immutable, and the copy shares it.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{
		k:           s.k,
		n:           s.n,
		min:         s.min,
		max:         s.max,
		levels:      make([][]float64, len(s.levels)),
		compactions: append([]uint64(nil), s.compactions...),
		once:        new(sync.Once),
	}
	for h, lv := range s.levels {
		c.levels[h] = append([]float64(nil), lv...)
	}
	if st := s.st.Load(); st != nil {
		c.st.Store(st)
		c.once = builtOnce
	}
	return c
}

// Merge combines two sketches of the same capacity into a new one
// covering both streams; a and b are not modified. Merge is
// associative and commutative up to the documented rank-error bound,
// and exactly commutative in canonical bytes: the result's canonical
// form depends only on the retained multiset, which is symmetric in
// a and b.
func Merge(a, b *Sketch) (*Sketch, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("%w: merge with nil sketch", ErrSketch)
	}
	if a.k != b.k {
		return nil, fmt.Errorf("%w: merge capacity mismatch k=%d vs k=%d", ErrSketch, a.k, b.k)
	}
	levels := len(a.levels)
	if len(b.levels) > levels {
		levels = len(b.levels)
	}
	m := &Sketch{
		k:           a.k,
		n:           a.n + b.n,
		min:         math.Min(a.min, b.min),
		max:         math.Max(a.max, b.max),
		levels:      make([][]float64, levels),
		compactions: make([]uint64, levels),
		once:        new(sync.Once),
	}
	for h := 0; h < levels; h++ {
		var lv []float64
		if h < len(a.levels) {
			lv = append(lv, a.levels[h]...)
			m.compactions[h] += a.compactions[h]
		}
		if h < len(b.levels) {
			lv = append(lv, b.levels[h]...)
			m.compactions[h] += b.compactions[h]
		}
		m.levels[h] = lv
	}
	for h := 0; h < len(m.levels); h++ {
		if len(m.levels[h]) >= m.k {
			m.compact(h)
		}
	}
	return m, nil
}

// law returns the retained items as a dist.Step, building it on first
// use after a mutation. Each item carries its compactor weight 2^h in
// rank units, so in exact mode every weight is 1 and the law is the
// unit-weight step law of dist.NewEmpirical over the same sample: the
// two run the same code. Safe for concurrent readers.
func (s *Sketch) law() *dist.Step {
	s.once.Do(func() {
		xs, cum := s.mergedAtoms()
		if xs == nil {
			xs, cum = s.sortedAtoms()
		}
		if len(xs) == 0 || cum[len(cum)-1] == float64(len(xs)) {
			cum = nil // unit weights: the exact sample
		}
		st := dist.NewStep(xs, cum, nil, s.min, s.max)
		s.st.Store(&st)
	})
	return s.st.Load()
}

// mergedAtoms returns the retained items ascending by (value, level),
// which is ascending by (value, weight), with their cumulative
// weights: the levels in sort.Float64s order, merged. It returns nil
// when a level holds -0, whose order against +0 only sortedAtoms
// fixes.
func (s *Sketch) mergedAtoms() (xs, cum []float64) {
	views := make([][]float64, len(s.levels))
	sp := floatScratch.Get().(*[]float64)
	defer floatScratch.Put(sp)
	all := slices.Grow((*sp)[:0], s.Retained())
	for h, lv := range s.levels {
		for _, x := range lv {
			if x == 0 && math.Signbit(x) {
				return nil, nil
			}
		}
		if ascending(lv) {
			views[h] = lv
			continue
		}
		all = append(all, lv...)
		views[h] = all[len(all)-len(lv):]
		sortLevel(views[h])
	}
	*sp = all
	xs = make([]float64, s.Retained())
	cum = make([]float64, len(xs))
	heads := make([]int, len(views))
	var run float64
	for j := range xs {
		best := -1
		for h, v := range views {
			if heads[h] < len(v) && (best < 0 || v[heads[h]] < views[best][heads[best]]) {
				best = h
			}
		}
		xs[j] = views[best][heads[best]]
		heads[best]++
		run += float64(uint64(1) << uint(best))
		cum[j] = run
	}
	return xs, cum
}

// sortedAtoms returns the retained items ascending by (value, weight),
// with their cumulative weights, by sorting them all at once.
func (s *Sketch) sortedAtoms() (xs, cum []float64) {
	type atom struct{ x, w float64 }
	atoms := make([]atom, 0, s.Retained())
	for h, lv := range s.levels {
		w := float64(uint64(1) << uint(h))
		for _, x := range lv {
			atoms = append(atoms, atom{x, w})
		}
	}
	slices.SortFunc(atoms, func(a, b atom) int {
		return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.w, b.w))
	})
	xs = make([]float64, len(atoms))
	cum = make([]float64, len(atoms))
	var run float64
	for i, a := range atoms {
		xs[i] = a.x
		run += a.w
		cum[i] = run
	}
	return xs, cum
}

// StepLaw returns the retained items as one weighted step law, or nil
// while the sketch is empty. The counting bootstrap of internal/policy
// draws its resamples from these atoms.
func (s *Sketch) StepLaw() *dist.Step {
	if s.n == 0 {
		return nil
	}
	return s.law()
}

// CDF implements dist.Dist: the estimated fraction of observations
// ≤ x. In exact mode it equals the ECDF exactly; otherwise within
// ErrorBound.
func (s *Sketch) CDF(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	return s.law().CDF(x)
}

// PDF implements dist.Dist with the finite-difference density of the
// step law.
func (s *Sketch) PDF(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	return s.law().PDF(x)
}

// Quantile implements dist.Dist: the smallest retained value whose
// cumulative weight reaches p·n. p=0 and p=1 map to the exact
// tracked minimum and maximum of the stream.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.law().Quantile(p)
}

// QuantileBatch implements dist.BatchQuantiler.
func (s *Sketch) QuantileBatch(ps, dst []float64) {
	for i, p := range ps {
		dst[i] = s.Quantile(p)
	}
}

// FitSample extracts an m-point pseudo-sample for the parametric
// estimators: the quantiles at the integer ranks ⌈(i+1)·n/m⌉. When
// the sketch is exact and m == n this reconstructs the sorted sample
// exactly (the targets are computed in rank space, so no float
// round-off can shift an index).
func (s *Sketch) FitSample(m int) []float64 {
	if s.n == 0 || m <= 0 {
		return nil
	}
	st := s.law()
	out := make([]float64, m)
	nf := float64(s.n)
	mf := float64(m)
	for i := 0; i < m; i++ {
		out[i] = st.QuantileRank(math.Ceil(float64(i+1) * nf / mf))
	}
	return out
}

// Mean implements dist.Dist: the weighted mean of the retained
// sample (exact in exact mode; within ErrorBound·(max−min) after).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.law().Mean()
}

// Var implements dist.Dist (population variance of the weighted
// retained sample).
func (s *Sketch) Var() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.law().Var()
}

// Sample implements dist.Dist: a draw from the weighted retained
// sample.
func (s *Sketch) Sample(r *xrand.Rand) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.law().Sample(r)
}

// Support implements dist.Dist with the exactly-tracked stream
// minimum and maximum (compaction may drop the extremes from the
// levels, but never from these).
func (s *Sketch) Support() (float64, float64) {
	if s.n == 0 {
		return math.NaN(), math.NaN()
	}
	return s.min, s.max
}

// String implements dist.Dist.
func (s *Sketch) String() string {
	return fmt.Sprintf("Sketch(k=%d, n=%d, ±%.3g rank, mean=%.6g)", s.k, s.n, s.ErrorBound(), s.Mean())
}

// MinExpectation returns the expectation of the minimum of n i.i.d.
// draws from the sketched distribution, in one exact pass over the
// weighted retained sample — the hook orderstat.Min dispatches on, so
// sketch-backed models get the exact plug-in path with no quadrature.
func (s *Sketch) MinExpectation(n int) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.law().MinExpectation(n)
}

// TruncatedMean returns E[min(Y, c)] in one pass over the weighted
// retained sample — exact below capacity, within the sketch's rank
// error above it. It is the restart-policy pricing hook.
func (s *Sketch) TruncatedMean(c float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.law().TruncatedMean(c)
}

// MinSample draws one realization of min(X₁..Xₙ) by the inverse-CDF
// identity Z(n) = Q(1-(1-U)^{1/n}).
func (s *Sketch) MinSample(n int, r *xrand.Rand) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.law().MinSample(n, r)
}
