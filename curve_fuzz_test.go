package lasvegas_test

import (
	"math"
	"testing"

	"lasvegas"
	"lasvegas/internal/xrand"
)

// FuzzCurve holds Model.Curve, which evaluates E[Z(n)] once per point,
// to Speedup(n) and MinExpectation(n) bit for bit on random laws and
// random core lists. The fuzzer picks a lognormal law (log-mean in
// [1, 10), log-sd in [0.1, 5), shift in [0, 1000)) or a shifted
// exponential (shift in [0, 1000), mean in [1, 10001)), draws a
// 40-run campaign from it, fits that family and asks for up to 16
// core counts in [1, 8192].
func FuzzCurve(f *testing.F) {
	f.Add(0.6, 0.17, 0.04, true, uint64(1), []byte{0, 1, 0, 15, 0, 255, 31, 255})
	f.Add(0.3, 0.84, 0.5, true, uint64(2), []byte{0, 0, 0, 1, 1, 0})
	f.Add(0.1, 0.1, 0.05, false, uint64(3), []byte{0, 7, 31, 255})
	f.Add(0.9, 0.9, 0.0, false, uint64(4), []byte{})

	frac := func(x float64) float64 {
		x = math.Abs(x)
		return x - math.Floor(x)
	}
	f.Fuzz(func(t *testing.T, a, b, c float64, lognormal bool, seed uint64, coreBytes []byte) {
		for _, x := range []float64{a, b, c} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		family, draw := lasvegas.ShiftedExponential, func(r *xrand.Rand) float64 {
			return 1000*frac(a) + (1+1e4*frac(b))*r.Exp()
		}
		if lognormal {
			family, draw = lasvegas.LogNormal, func(r *xrand.Rand) float64 {
				return 1000*frac(c) + math.Exp(1+9*frac(a)+(0.1+4.9*frac(b))*r.Norm())
			}
		}
		m, err := fitFamily(drawCampaign("fuzz", seed, 40, draw), family)
		if err != nil {
			return
		}
		cores := []int{1}
		for i := 0; i+1 < len(coreBytes) && i < 32; i += 2 {
			cores = append(cores, 1+(int(coreBytes[i])<<8|int(coreBytes[i+1]))%8192)
		}
		checkCurvePointwise(t, m, cores)
	})
}
