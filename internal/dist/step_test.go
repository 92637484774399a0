package dist_test

import (
	"math"
	"sort"
	"testing"

	"lasvegas/internal/dist"
)

// FuzzStep pins that an integer atom weight is exactly the same law as
// duplicating the atom — the property that makes a sketch item of
// weight 2^h stand for 2^h observations. Each byte pair of the input
// is one atom (value, weight 1..8); the weighted Step must match
// NewEmpirical on the literally expanded sample: CDF and Quantile
// exactly, the one-pass sums within 1e-12 relative error.
func FuzzStep(f *testing.F) {
	f.Add([]byte{7, 0})
	f.Add([]byte{3, 1, 3, 7, 200, 2, 9, 0, 3, 4})
	f.Add([]byte{255, 7, 0, 7, 128, 7, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		type atom struct{ x, w float64 }
		atoms := make([]atom, len(data)/2)
		var expanded []float64
		for i := range atoms {
			v := float64(data[2*i])
			atoms[i] = atom{x: 1 + v*v/16, w: float64(1 + data[2*i+1]%8)}
			for j := 0; j < int(atoms[i].w); j++ {
				expanded = append(expanded, atoms[i].x)
			}
		}
		sort.Slice(atoms, func(i, j int) bool { return atoms[i].x < atoms[j].x })
		xs := make([]float64, len(atoms))
		cum := make([]float64, len(atoms))
		var run float64
		for i, a := range atoms {
			xs[i] = a.x
			run += a.w
			cum[i] = run
		}
		st := dist.NewStep(xs, cum, nil, xs[0], xs[len(xs)-1])
		e, err := dist.NewEmpirical(expanded)
		if err != nil {
			t.Fatal(err)
		}

		// close reports a relative error within 1e-12 of the larger
		// magnitude, or of scale when that is larger (the second
		// moment, for a variance that cancels to ~0).
		close := func(a, b, scale float64) bool {
			return math.Abs(a-b) <= 1e-12*math.Max(scale, math.Max(math.Abs(a), math.Abs(b)))
		}
		mean := e.Mean()
		if !close(st.Mean(), mean, 0) {
			t.Errorf("Mean: weighted %v vs expanded %v", st.Mean(), mean)
		}
		if !close(st.Var(), e.Var(), mean*mean) {
			t.Errorf("Var: weighted %v vs expanded %v", st.Var(), e.Var())
		}
		lo, hi := xs[0], xs[len(xs)-1]
		for _, x := range []float64{lo - 1, lo, (lo + hi) / 2, xs[len(xs)/2], math.Nextafter(hi, 0), hi, hi + 1} {
			if got, want := st.CDF(x), e.CDF(x); got != want {
				t.Errorf("CDF(%v): weighted %v vs expanded %v", x, got, want)
			}
			if got, want := st.TruncatedMean(x), e.TruncatedMean(x); !close(got, want, 0) {
				t.Errorf("TruncatedMean(%v): weighted %v vs expanded %v", x, got, want)
			}
		}
		for p := 0.0; p <= 1; p += 1.0 / 64 {
			if got, want := st.Quantile(p), e.Quantile(p); got != want {
				t.Errorf("Quantile(%v): weighted %v vs expanded %v", p, got, want)
			}
		}
		for _, n := range []int{1, 2, 7, 64, 1000} {
			if got, want := st.MinExpectation(n), e.MinExpectation(n); !close(got, want, 0) {
				t.Errorf("MinExpectation(%d): weighted %v vs expanded %v", n, got, want)
			}
		}
	})
}

// TestMinExpectationExactEnumeration checks the plug-in predictor's
// one-pass E[Z(n)] against its definition: for tiny m and n, the mean
// of min over all mⁿ equally likely tuples of the (expanded) sample.
// Integer weights are enumerated as that many copies of the atom.
func TestMinExpectationExactEnumeration(t *testing.T) {
	cases := []struct {
		name   string
		xs, ws []float64 // ws nil: unit weights
	}{
		{name: "distinct", xs: []float64{1, 2.5, 4, 9}},
		{name: "ties", xs: []float64{2, 2, 3, 3, 3, 10}},
		{name: "one atom", xs: []float64{5}},
		{name: "weights", xs: []float64{1.5, 3, 7}, ws: []float64{2, 1, 3}},
		{name: "weights and ties", xs: []float64{0.5, 4, 4, 6}, ws: []float64{1, 2, 1, 1}},
	}
	for _, c := range cases {
		var st *dist.Step
		samples := c.xs // the multiset the tuples draw from
		if c.ws == nil {
			e, err := dist.NewEmpirical(c.xs)
			if err != nil {
				t.Fatal(err)
			}
			st = e
		} else {
			samples = nil
			cum := make([]float64, len(c.xs))
			var run float64
			for i, w := range c.ws {
				run += w
				cum[i] = run
				for range int(w) {
					samples = append(samples, c.xs[i])
				}
			}
			s := dist.NewStep(c.xs, cum, nil, c.xs[0], c.xs[len(c.xs)-1])
			st = &s
		}
		m := len(samples)
		for n := 1; n <= 4; n++ {
			// Walk every tuple as a base-m counter over sample indices.
			idx := make([]int, n)
			var sum float64
			tuples := 0
			for {
				z := math.Inf(1)
				for _, i := range idx {
					z = math.Min(z, samples[i])
				}
				sum += z
				tuples++
				k := 0
				for k < n && idx[k] == m-1 {
					idx[k] = 0
					k++
				}
				if k == n {
					break
				}
				idx[k]++
			}
			want := sum / float64(tuples)
			if got := st.MinExpectation(n); math.Abs(got-want) > 1e-12*want {
				t.Errorf("%s: MinExpectation(%d) = %.17g, mean over %d tuples %.17g", c.name, n, got, tuples, want)
			}
		}
	}
}
