package dist_test

import (
	"math"
	"sort"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// searchAtom is Quantile's weighted rule by binary search, the answer
// the guide-table index must reproduce.
func searchAtom(cum []float64, u float64) int {
	w := cum[len(cum)-1]
	return min(sort.SearchFloat64s(cum, u*w), len(cum)-1)
}

// edgeDraws returns draws that land exactly on, and one ulp either
// side of, every guide bucket edge k/m and every cumulative mass
// cum[i]/W, plus the extremes of (0, 1).
func edgeDraws(cum []float64) []float64 {
	m, w := len(cum), cum[len(cum)-1]
	us := []float64{math.SmallestNonzeroFloat64, 1e-300, math.Nextafter(1, 0)}
	for k := 0; k <= m; k++ {
		us = append(us, float64(k)/float64(m))
	}
	for _, c := range cum {
		us = append(us, c/w)
	}
	var out []float64
	for _, u := range us {
		for _, v := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 1)} {
			if v > 0 && v < 1 {
				out = append(out, v)
			}
		}
	}
	return out
}

// checkIndex compares the atom index of st against Quantile and, on
// weights, against the binary search, over edgeDraws and random draws.
func checkIndex(t *testing.T, st *dist.Step, cum []float64, draws []float64) {
	t.Helper()
	ix := st.Index(nil)
	xs := st.Sorted()
	for _, u := range draws {
		i := ix.Atom(u)
		if cum != nil {
			if want := searchAtom(cum, u); i != want {
				t.Fatalf("u=%v: guide index %d, binary search %d (cum %v)", u, i, want, cum)
			}
		}
		if got, want := xs[i], st.Quantile(u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("u=%v: atom %v, Quantile %v", u, got, want)
		}
	}
}

func TestAtomIndexMatchesQuantile(t *testing.T) {
	r := xrand.New(11)
	random := make([]float64, 20000)
	for i := range random {
		random[i] = r.Float64Open()
	}
	// Unit weights, tied atoms.
	sample := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}
	e, err := dist.NewEmpirical(sample)
	if err != nil {
		t.Fatal(err)
	}
	unitCum := make([]float64, e.Len())
	for i := range unitCum {
		unitCum[i] = float64(i + 1)
	}
	checkIndex(t, e, nil, append(edgeDraws(unitCum), random...))

	for name, weights := range map[string][]float64{
		"sketch-like": {1, 1, 2, 2, 4, 1, 8, 8, 2, 16, 1, 4},
		"one-atom":    {3},
		"skewed":      {1e-9, 1, 1e-9, 1e6, 1e-9, 2},
		"probability": {0.1, 0.2, 0.05, 0.3, 0.15, 0.2},
		"zero-mass":   {1, 0, 0, 2, 0, 1},
	} {
		xs := make([]float64, len(weights))
		cum := make([]float64, len(weights))
		var run float64
		for i, w := range weights {
			xs[i] = float64(10 * (i + 1))
			run += w
			cum[i] = run
		}
		st := dist.NewStep(xs, cum, nil, xs[0], xs[len(xs)-1])
		t.Run(name, func(t *testing.T) { checkIndex(t, &st, cum, append(edgeDraws(cum), random...)) })
	}
}

// FuzzAtomIndex pins the guide-table index to the binary search it
// replaces: each byte pair of the input is one atom weight (a mantissa
// and a binary exponent, zero weights included), and the trailing
// bytes seed random draws on top of every bucket and mass edge.
func FuzzAtomIndex(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0}, uint64(1))
	f.Add([]byte{255, 7, 0, 0, 1, 30, 9, 2}, uint64(7))
	f.Add([]byte{3, 200, 3, 1, 3, 100}, uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 2 || len(data) > 2048 {
			return
		}
		cum := make([]float64, len(data)/2)
		var run float64
		for i := range cum {
			run += math.Ldexp(float64(data[2*i]), int(data[2*i+1]%64)-32)
			cum[i] = run
		}
		if !(run > 0) {
			return
		}
		xs := make([]float64, len(cum))
		for i := range xs {
			xs[i] = float64(i)
		}
		st := dist.NewStep(xs, cum, nil, xs[0], xs[len(xs)-1])
		draws := edgeDraws(cum)
		r := xrand.New(seed)
		for i := 0; i < 256; i++ {
			draws = append(draws, r.Float64Open())
		}
		checkIndex(t, &st, cum, draws)
	})
}
