package sketch

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"lasvegas/internal/xrand"
)

// sameBits reports whether two slices hold the same bits in order.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRadixSortMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	r := xrand.New(19)
	gen := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	cases := map[string][]float64{
		"empty":    {},
		"single":   {negZero},
		"integers": gen(1024, func(int) float64 { return math.Ceil(math.Exp(7 + 0.85*r.Norm())) }),
		"negative": gen(700, func(int) float64 { return -math.Exp(3 * r.Norm()) }),
		"mixed-sign": gen(500, func(int) float64 {
			return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
		}),
		"subnormal": gen(300, func(i int) float64 {
			return math.Float64frombits(uint64(r.Intn(1<<20))) * float64(1-2*(i%2))
		}),
		"all-equal": gen(256, func(int) float64 { return 42 }),
		"one-differs": gen(256, func(i int) float64 {
			if i == 100 {
				return math.Nextafter(42, 43)
			}
			return 42
		}),
		"negative-zero-only":  gen(128, func(i int) float64 { return []float64{negZero, 1, -1}[i%3] }),
		"positive-zero-only":  gen(128, func(i int) float64 { return []float64{0, 1, -1}[i%3] }),
		"single-varying-byte": gen(512, func(int) float64 { return math.Float64frombits(0x4059000000000000 | uint64(r.Intn(256))<<24) }),
		"extremes": {math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			1, -1, 1e21, 1e-7, 9007199254740993, 9007199254740992, 0},
	}
	for name, in := range cases {
		got, want := slices.Clone(in), slices.Clone(in)
		if !radixSort(got) {
			t.Errorf("%s: radixSort declined a level without both signed zeros", name)
			continue
		}
		sort.Float64s(want)
		if !sameBits(got, want) {
			t.Errorf("%s: radix order differs from sort.Float64s", name)
		}
	}
	mixed := gen(200, func(i int) float64 { return []float64{negZero, 0, 3}[i%3] })
	got := slices.Clone(mixed)
	if radixSort(got) || !sameBits(got, mixed) {
		t.Error("radixSort took on, or touched, a level holding both signed zeros")
	}
	sortLevel(got)
	want := slices.Clone(mixed)
	sort.Float64s(want)
	if !sameBits(got, want) {
		t.Error("sortLevel on both signed zeros differs from sort.Float64s")
	}
}

// lawSketches are sketches whose levels cover the shapes the law
// merge meets: exact, compacted, merged, read back from the wire
// (every level ascending), and holding -0.
func lawSketches(t *testing.T) map[string]*Sketch {
	t.Helper()
	r := xrand.New(23)
	ints := make([]float64, 30000)
	for i := range ints {
		ints[i] = math.Ceil(math.Exp(7 + 0.85*r.Norm()))
	}
	smooth := testSamples(20000)["smooth"]
	negative := make([]float64, len(smooth))
	for i, x := range smooth {
		negative[i] = -x
	}
	out := map[string]*Sketch{
		"exact":         fill(t, 1024, ints[:700]),
		"tied-integers": fill(t, 64, ints),
		"smooth":        fill(t, 128, smooth),
		"atoms":         fill(t, 32, testSamples(5000)["atoms"]),
		"constant":      fill(t, 16, testSamples(3000)["constant"]),
		"negative":      fill(t, 64, negative),
		"signed-zeros":  fill(t, 64, tiedValues(r, 9000)),
	}
	m, err := Merge(out["tied-integers"], fill(t, 64, ints[:7777]))
	if err != nil {
		t.Fatal(err)
	}
	out["merged"] = m
	raw, err := json.Marshal(out["smooth"])
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	out["decoded"] = &back
	return out
}

// TestLawMergeMatchesSort holds the step law built by merging sorted
// levels to the one built by sorting every (value, weight) atom, bit
// for bit, and checks that a sketch holding -0 takes the sort.
func TestLawMergeMatchesSort(t *testing.T) {
	for name, s := range lawSketches(t) {
		xs, cum := s.mergedAtoms()
		wantXs, wantCum := s.sortedAtoms()
		if name == "signed-zeros" {
			if xs != nil {
				t.Errorf("%s: merged a sketch holding -0", name)
			}
			xs, cum = wantXs, wantCum
		}
		if !sameBits(xs, wantXs) || !sameBits(cum, wantCum) {
			t.Errorf("%s: merged atoms differ from the sorted ones", name)
		}
		got := s.StepLaw()
		if !sameBits(got.Sorted(), wantXs) {
			t.Errorf("%s: law atoms differ from the sorted ones", name)
		}
		for _, p := range []float64{0, 0.001, 0.1, 0.5, 0.9, 0.999, 1} {
			if got.Quantile(p) != s.Quantile(p) {
				t.Errorf("%s: Quantile(%v) moved", name, p)
			}
		}
	}
}

// TestCloneSharesLaw checks that a clone carries its source's step law
// (the law is built once), that the shared law serves concurrent
// readers of both sketches — atom indexes included — and that a
// mutated clone builds its own law and leaves the source's alone.
func TestCloneSharesLaw(t *testing.T) {
	src := lawSketches(t)["tied-integers"]
	if c := src.Clone(); c.st.Load() != nil {
		t.Fatal("a clone of a sketch with no law built carries one")
	}
	law := src.StepLaw()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := src.Clone()
			if c.StepLaw() != law {
				t.Error("clone rebuilt the law")
			}
			ix := c.StepLaw().Index(nil)
			r := xrand.New(uint64(g))
			for i := 0; i < 2000; i++ {
				u := r.Float64Open()
				if law.Sorted()[ix.Atom(u)] != src.Quantile(u) {
					t.Error("shared law's atom index disagrees with Quantile")
					return
				}
			}
			_ = c.MinExpectation(64) + src.TruncatedMean(1000)
			if g%2 == 0 {
				if err := c.Add(1); err != nil {
					t.Error(err)
				}
				if c.StepLaw() == law {
					t.Error("mutated clone kept its source's law")
				}
			}
		}()
	}
	wg.Wait()
	if src.StepLaw() != law {
		t.Error("clones disturbed the source's law")
	}
}
