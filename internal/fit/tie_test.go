package fit

import (
	"math"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/sketch"
	"lasvegas/internal/xrand"
)

// profileNLLPerObservation is the profile NLL with one log per
// observation, the loop profileNLL must reproduce bit for bit.
func profileNLLPerObservation(sample []float64, x0 float64) float64 {
	n := float64(len(sample))
	var sumLog, sumLog2 float64
	for _, x := range sample {
		t := x - x0
		if t <= 0 {
			return math.Inf(1)
		}
		l := math.Log(t)
		sumLog += l
		sumLog2 += l * l
	}
	mu := sumLog / n
	s2 := sumLog2/n - mu*mu
	if s2 <= 0 {
		return math.Inf(1)
	}
	return n/2*math.Log(s2) + sumLog
}

// tiedSamples returns the sample shapes the tie reuse must leave
// bit-identical: integer iteration counts in campaign order, the
// sorted pseudo-sample of a compacted sketch, and an unsorted raw
// campaign without ties.
func tiedSamples(t *testing.T) map[string][]float64 {
	t.Helper()
	law, _ := dist.NewLogNormal(0, 7, 0.85)
	raw := dist.SampleN(law, xrand.New(3), 20000)
	ints := make([]float64, len(raw))
	for i, x := range raw {
		ints[i] = math.Ceil(x / 64) // ~60 distinct values
	}
	sk, err := sketch.New(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range raw {
		if err := sk.Add(math.Ceil(x)); err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]float64{
		"tied-integers":     ints,
		"sketch-pseudo":     sk.FitSample(4096),
		"raw-unsorted":      raw[:3000],
		"constant-then-one": {5, 5, 5, 5, 7},
	}
}

func TestProfileNLLTieReuseBitIdentical(t *testing.T) {
	for name, xs := range tiedSamples(t) {
		lo := xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
		}
		for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999999, 1, 1.5} {
			x0 := lo * frac
			got, want := profileNLL(xs, x0), profileNLLPerObservation(xs, x0)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, x0=%v: profileNLL %v, per-observation loop %v", name, x0, got, want)
			}
		}
	}
}
