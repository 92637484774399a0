package sketch

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/orderstat"
	"lasvegas/internal/xrand"
)

var (
	_ dist.Dist           = (*Sketch)(nil)
	_ dist.BatchQuantiler = (*Sketch)(nil)
)

func mustNew(t *testing.T, k int) *Sketch {
	t.Helper()
	s, err := New(k)
	if err != nil {
		t.Fatalf("New(%d): %v", k, err)
	}
	return s
}

func fill(t *testing.T, k int, xs []float64) *Sketch {
	t.Helper()
	s := mustNew(t, k)
	if err := s.AddAll(xs); err != nil {
		t.Fatalf("AddAll: %v", err)
	}
	return s
}

// samples used across the accuracy tests: smooth, heavy-tailed, and
// the atom-heavy tied samples that iteration counts produce (the ties
// that broke ks.TwoSample in PR 1).
func testSamples(n int) map[string][]float64 {
	r := xrand.New(7)
	smooth := make([]float64, n)
	heavy := make([]float64, n)
	atoms := make([]float64, n)
	constant := make([]float64, n)
	for i := 0; i < n; i++ {
		smooth[i] = 100 + 50*r.Float64()
		u := r.Float64Open()
		heavy[i] = math.Exp(3 * u * u * u)
		atoms[i] = float64(1 + r.Intn(7)) // 7 distinct values only
		constant[i] = 42
	}
	return map[string][]float64{
		"smooth":   smooth,
		"heavy":    heavy,
		"atoms":    atoms,
		"constant": constant,
	}
}

func TestNewValidation(t *testing.T) {
	for _, k := range []int{-1, 0} {
		if s := mustNew(t, k); s.K() != DefaultK {
			t.Fatalf("New(%d).K() = %d, want DefaultK", k, s.K())
		}
	}
	for _, k := range []int{2, 6, 7, 9, 1001} {
		if _, err := New(k); err == nil {
			t.Fatalf("New(%d) accepted", k)
		}
	}
}

func TestAddRejectsNonFinite(t *testing.T) {
	s := mustNew(t, 64)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Add(x); err == nil {
			t.Fatalf("Add(%v) accepted", x)
		}
	}
	if s.N() != 0 {
		t.Fatalf("rejected adds counted: n=%d", s.N())
	}
}

// In exact mode (n ≤ k) every query must be bit-identical to
// dist.NewEmpirical on the same sample — the property that makes the
// sketch a drop-in for small campaigns. TruncatedMean is checked at
// cutoffs below the minimum, on atoms, between atoms and above the
// maximum; Sample and MinSample under equal seeds.
func TestExactModeMatchesEmpirical(t *testing.T) {
	for name, xs := range testSamples(500) {
		t.Run(name, func(t *testing.T) {
			s := fill(t, 1024, xs)
			if !s.Exact() {
				t.Fatalf("n=%d ≤ k should be exact", len(xs))
			}
			if got := s.ErrorBound(); got != 0 {
				t.Fatalf("exact-mode ErrorBound = %v", got)
			}
			e, err := dist.NewEmpirical(xs)
			if err != nil {
				t.Fatal(err)
			}
			if s.Mean() != e.Mean() {
				t.Errorf("Mean %v vs empirical %v", s.Mean(), e.Mean())
			}
			if s.Var() != e.Var() {
				t.Errorf("Var %v vs empirical %v", s.Var(), e.Var())
			}
			slo, shi := s.Support()
			elo, ehi := e.Support()
			if slo != elo || shi != ehi {
				t.Errorf("Support (%v,%v) vs (%v,%v)", slo, shi, elo, ehi)
			}
			for _, p := range []float64{0, 1e-9, 0.1, 0.25, 0.5, 1 / 3.0, 0.75, 0.9, 0.999, 1} {
				if got, want := s.Quantile(p), e.Quantile(p); got != want {
					t.Errorf("Quantile(%v) = %v, want %v", p, got, want)
				}
			}
			for _, x := range []float64{xs[0], xs[len(xs)/2], slo - 1, shi + 1, (slo + shi) / 2, (slo+shi)/2 + 0.25} {
				if got, want := s.CDF(x), e.CDF(x); got != want {
					t.Errorf("CDF(%v) = %v, want %v", x, got, want)
				}
				if got, want := s.TruncatedMean(x), e.TruncatedMean(x); got != want {
					t.Errorf("TruncatedMean(%v) = %v, want %v", x, got, want)
				}
				if got, want := s.PDF(x), e.PDF(x); got != want {
					t.Errorf("PDF(%v) = %v, want %v", x, got, want)
				}
			}
			for _, n := range []int{1, 2, 16, 64, 1024, 8192} {
				if got, want := s.MinExpectation(n), e.MinExpectation(n); got != want {
					t.Errorf("MinExpectation(%d) = %v, want %v", n, got, want)
				}
			}
			r1, r2 := xrand.New(11), xrand.New(11)
			for i := 0; i < 100; i++ {
				if got, want := s.Sample(r1), e.Sample(r2); got != want {
					t.Fatalf("Sample %d = %v, want %v", i, got, want)
				}
				if got, want := s.MinSample(64, r1), e.MinSample(64, r2); got != want {
					t.Fatalf("MinSample %d = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// maxRankError returns the worst |F̂(x) − F(x)| over the true sample
// points, the uniform rank error of the sketch against the exact
// ECDF.
func maxRankError(s *Sketch, xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	worst := 0.0
	for i, x := range sorted {
		// True ECDF at x: the last index of the tied run.
		j := sort.SearchFloat64s(sorted, x+math.Abs(x)*1e-12)
		truth := float64(j) / n
		_ = i
		if d := math.Abs(s.CDF(x) - truth); d > worst {
			worst = d
		}
	}
	return worst
}

// The compacted sketch must honour its own reported rank-error bound
// on every sample shape, including atom-heavy ties.
func TestRankErrorBound(t *testing.T) {
	const n = 60000
	for name, xs := range testSamples(n) {
		t.Run(name, func(t *testing.T) {
			s := fill(t, 64, xs) // tiny k forces many compactions
			if s.Exact() {
				t.Fatalf("n=%d with k=64 should have compacted", n)
			}
			bound := s.ErrorBound()
			if bound <= 0 || bound >= 1 {
				t.Fatalf("useless bound %v", bound)
			}
			if got := maxRankError(s, xs); got > bound {
				t.Errorf("rank error %v exceeds reported bound %v", got, bound)
			}
			// Quantiles must land within bound ranks of the truth.
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
				q := s.Quantile(p)
				loRank := int(math.Floor((p - bound) * n))
				hiRank := int(math.Ceil((p + bound) * n))
				if loRank < 0 {
					loRank = 0
				}
				if hiRank > n-1 {
					hiRank = n - 1
				}
				if q < sorted[loRank] || q > sorted[hiRank] {
					t.Errorf("Quantile(%v) = %v outside rank window [%v, %v]",
						p, q, sorted[loRank], sorted[hiRank])
				}
			}
			// Moments inherit the bound: |Δmean| ≤ ε·(max−min).
			e, _ := dist.NewEmpirical(xs)
			span := sorted[n-1] - sorted[0]
			if d := math.Abs(s.Mean() - e.Mean()); d > bound*span+1e-9 {
				t.Errorf("mean off by %v > ε·span = %v", d, bound*span)
			}
		})
	}
}

// Memory must stay O(k·log(n/k)) no matter how long the stream runs.
func TestRetainedBound(t *testing.T) {
	const k, n = 256, 200000
	s := mustNew(t, k)
	r := xrand.New(3)
	for i := 0; i < n; i++ {
		if err := s.Add(r.Float64() * 1e6); err != nil {
			t.Fatal(err)
		}
	}
	levels := int(math.Ceil(math.Log2(float64(n)/float64(k)))) + 2
	if got, limit := s.Retained(), k*levels; got > limit {
		t.Fatalf("retained %d items > k·(log2(n/k)+2) = %d", got, limit)
	}
	if s.N() != n {
		t.Fatalf("n = %d, want %d", s.N(), n)
	}
}

// Merge must be exactly commutative in canonical bytes, and
// associative up to the documented bound.
func TestMergeCommutesAndAssociates(t *testing.T) {
	xs := testSamples(30000)["heavy"]
	a := fill(t, 128, xs[:10000])
	b := fill(t, 128, xs[10000:18000])
	c := fill(t, 128, xs[18000:])

	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(b, a)
	if err != nil {
		t.Fatal(err)
	}
	jab, _ := json.Marshal(ab)
	jba, _ := json.Marshal(ba)
	if string(jab) != string(jba) {
		t.Fatalf("Merge(a,b) and Merge(b,a) differ:\n%s\n%s", jab, jba)
	}

	abc1, err := Merge(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Merge(b, c)
	if err != nil {
		t.Fatal(err)
	}
	abc2, err := Merge(a, bc)
	if err != nil {
		t.Fatal(err)
	}
	if abc1.N() != abc2.N() || abc1.N() != uint64(len(xs)) {
		t.Fatalf("merged counts %d, %d, want %d", abc1.N(), abc2.N(), len(xs))
	}
	// Association may change compaction histories, but both results
	// must agree within the sum of their reported bounds.
	tol := abc1.ErrorBound() + abc2.ErrorBound()
	for _, p := range []float64{0.1, 0.5, 0.9} {
		q1, q2 := abc1.Quantile(p), abc2.Quantile(p)
		// Compare in rank space against either sketch.
		if d := math.Abs(abc1.CDF(q2) - abc1.CDF(q1)); d > tol {
			t.Errorf("association moved Quantile(%v) by %v ranks > %v", p, d, tol)
		}
	}
	// And each must honour the ECDF of the pooled sample.
	if got, bound := maxRankError(abc1, xs), abc1.ErrorBound(); got > bound {
		t.Errorf("(a⊕b)⊕c rank error %v > bound %v", got, bound)
	}
	if got, bound := maxRankError(abc2, xs), abc2.ErrorBound(); got > bound {
		t.Errorf("a⊕(b⊕c) rank error %v > bound %v", got, bound)
	}
}

// Exact-mode shard merges must reproduce the single-stream sketch
// byte-for-byte — the property the lvserve smoke test leans on.
func TestMergeExactModeBytesEqualSingleStream(t *testing.T) {
	xs := testSamples(600)["atoms"]
	single := fill(t, 1024, xs)
	a := fill(t, 1024, xs[:200])
	b := fill(t, 1024, xs[200:450])
	c := fill(t, 1024, xs[450:])
	ab, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	abc, err := Merge(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(single)
	j2, _ := json.Marshal(abc)
	if string(j1) != string(j2) {
		t.Fatalf("exact-mode merge differs from single stream:\n%s\n%s", j1, j2)
	}
}

func TestMergeMismatch(t *testing.T) {
	a := mustNew(t, 64)
	b := mustNew(t, 128)
	if _, err := Merge(a, b); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	if _, err := Merge(a, nil); err == nil {
		t.Fatal("nil merge accepted")
	}
}

func TestMergeEmpty(t *testing.T) {
	xs := testSamples(100)["smooth"]
	a := fill(t, 64, xs)
	empty := mustNew(t, 64)
	m, err := Merge(a, empty)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != a.N() {
		t.Fatalf("n = %d, want %d", m.N(), a.N())
	}
	j1, _ := json.Marshal(a)
	j2, _ := json.Marshal(m)
	if string(j1) != string(j2) {
		t.Fatalf("merging an empty sketch changed the bytes")
	}
}

// The same stream folded twice — and folded after a serialization
// round trip — must produce byte-identical sketches: the replica
// byte-stability guarantee.
func TestDeterminismAndRoundTrip(t *testing.T) {
	xs := testSamples(50000)["smooth"]
	a := fill(t, 64, xs)
	b := fill(t, 64, xs)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same stream produced different sketches")
	}

	var back Sketch
	if err := json.Unmarshal(ja, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	jc, _ := json.Marshal(&back)
	if string(ja) != string(jc) {
		t.Fatal("serialization round trip not byte-stable")
	}
	if back.N() != a.N() || back.K() != a.K() || back.ErrorBound() != a.ErrorBound() {
		t.Fatal("round trip lost state")
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if back.Quantile(p) != a.Quantile(p) {
			t.Fatalf("round trip changed Quantile(%v)", p)
		}
	}

	// Continuing to fold after a round trip must also be deterministic.
	more := testSamples(5000)["heavy"]
	if err := back.AddAll(more); err != nil {
		t.Fatal(err)
	}
	if err := a.AddAll(more); err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(a)
	j2, _ := json.Marshal(&back)
	if string(j1) != string(j2) {
		t.Fatal("folding after a round trip diverged")
	}
}

func TestUnmarshalRejectsCorruptState(t *testing.T) {
	cases := map[string]string{
		"future schema":  `{"v":99,"k":64,"n":0,"levels":[[]],"compactions":[0]}`,
		"bad k":          `{"v":1,"k":7,"n":0,"levels":[[]],"compactions":[0]}`,
		"weight":         `{"v":1,"k":64,"n":5,"min":1,"max":2,"levels":[[1,2]],"compactions":[0]}`,
		"nonfinite":      `{"v":1,"k":64,"n":1,"min":1,"max":1,"levels":[["Infinity"]],"compactions":[0]}`,
		"counter shape":  `{"v":1,"k":64,"n":1,"min":1,"max":1,"levels":[[1]],"compactions":[0,0]}`,
		"missing levels": `{"v":1,"k":64,"n":0,"levels":[],"compactions":[]}`,
		"overfull level": `{"v":1,"k":8,"n":8,"min":1,"max":8,"levels":[[1,2,3,4,5,6,7,8]],"compactions":[0]}`,
		"bad support":    `{"v":1,"k":64,"n":1,"levels":[[1]],"compactions":[0]}`,
		"below min":      `{"v":1,"k":8,"n":2,"min":5,"max":6,"levels":[[1,2]],"compactions":[0]}`,
		"above max":      `{"v":1,"k":8,"n":3,"min":1,"max":6,"levels":[[1],[7]],"compactions":[1,0]}`,
		"exact min":      `{"v":1,"k":8,"n":2,"min":0,"max":6,"levels":[[1,6]],"compactions":[0]}`,
		"exact max":      `{"v":1,"k":8,"n":2,"min":1,"max":9,"levels":[[1,6]],"compactions":[0,0]}`,
		"spaced support": `{"v":1, "k":8,"n":2,"min":5,"max":6,"levels":[[1,2]],"compactions":[0]}`,
	}
	for name, raw := range cases {
		var s Sketch
		if err := json.Unmarshal([]byte(raw), &s); err == nil {
			t.Errorf("%s: accepted %s", name, raw)
		}
	}
	// The canonical reader and encoding/json reject a value below the
	// support alike, as invalid sketch state.
	for _, raw := range []string{cases["below min"], cases["spaced support"]} {
		var s Sketch
		if err := s.UnmarshalJSON([]byte(raw)); !errors.Is(err, ErrSketch) {
			t.Errorf("%s: got %v, want ErrSketch", raw, err)
		}
	}
	// A compacted sketch's extremes may have been dropped from the
	// levels: a support wider than the retained values stands.
	var s Sketch
	if err := json.Unmarshal([]byte(`{"v":1,"k":8,"n":3,"min":0,"max":9,"levels":[[1],[7]],"compactions":[1,0]}`), &s); err != nil {
		t.Errorf("compacted sketch with a wider support rejected: %v", err)
	}
}

// orderstat.Min must pick up the exact MinExpectation path through
// its capability interface, exactly as it does for dist.Empirical.
func TestOrderstatDispatch(t *testing.T) {
	xs := testSamples(2000)["heavy"]
	s := fill(t, 256, xs)
	for _, n := range []int{1, 4, 64, 512} {
		min := orderstat.Min{Base: s, N: n}
		if got, want := min.Mean(), s.MinExpectation(n); got != want {
			t.Fatalf("orderstat.Min(%d).Mean() = %v, want exact %v", n, got, want)
		}
	}
}

func TestFitSample(t *testing.T) {
	xs := testSamples(300)["smooth"]
	s := fill(t, 1024, xs)
	got := s.FitSample(len(xs))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("exact-mode FitSample[%d] = %v, want %v", i, got[i], sorted[i])
		}
	}
	// Subsampled pseudo-sample stays sorted and inside the support.
	sub := s.FitSample(37)
	if !sort.Float64sAreSorted(sub) {
		t.Fatal("FitSample not sorted")
	}
	lo, hi := s.Support()
	if sub[0] < lo || sub[len(sub)-1] > hi {
		t.Fatal("FitSample outside support")
	}
}

func TestSampleAndMinSample(t *testing.T) {
	xs := testSamples(1000)["smooth"]
	s := fill(t, 128, xs)
	r := xrand.New(11)
	lo, hi := s.Support()
	for i := 0; i < 100; i++ {
		if x := s.Sample(r); x < lo || x > hi {
			t.Fatalf("Sample outside support: %v", x)
		}
		if z := s.MinSample(64, r); z < lo || z > hi {
			t.Fatalf("MinSample outside support: %v", z)
		}
	}
}

func TestQuantileBatch(t *testing.T) {
	xs := testSamples(5000)["heavy"]
	s := fill(t, 128, xs)
	ps := []float64{0, 0.25, 0.5, 0.75, 1}
	dst := make([]float64, len(ps))
	s.QuantileBatch(ps, dst)
	for i, p := range ps {
		if dst[i] != s.Quantile(p) {
			t.Fatalf("QuantileBatch[%d] = %v, want %v", i, dst[i], s.Quantile(p))
		}
	}
}

func TestEmptySketchQueries(t *testing.T) {
	s := mustNew(t, 64)
	if got := s.CDF(1); got != 0 {
		t.Fatalf("empty CDF = %v", got)
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sketch queries should be NaN")
	}
	if s.ErrorBound() != 0 {
		t.Fatal("empty ErrorBound")
	}
}

func TestString(t *testing.T) {
	s := fill(t, 64, []float64{1, 2, 3})
	if got := s.String(); got != fmt.Sprintf("Sketch(k=64, n=3, ±0 rank, mean=%.6g)", 2.0) {
		t.Fatalf("String() = %q", got)
	}
}
