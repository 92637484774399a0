package ks

import (
	"math"
	"sort"
	"sync"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/sketch"
	"lasvegas/internal/xrand"
)

// oneSamplePerObservation and andersonDarlingPerObservation are the
// tests with a sorted copy and one CDF evaluation per observation,
// the loops OneSample and AndersonDarling must reproduce bit for bit.
func oneSamplePerObservation(sample []float64, d dist.Dist) Result {
	n := len(sample)
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	var dmax float64
	for i, x := range xs {
		f := d.CDF(x)
		upper := float64(i+1)/float64(n) - f
		lower := f - float64(i)/float64(n)
		if upper > dmax {
			dmax = upper
		}
		if lower > dmax {
			dmax = lower
		}
	}
	return Result{N: n, D: dmax, PValue: PValue(dmax, n)}
}

func andersonDarlingPerObservation(sample []float64, d dist.Dist) Result {
	n := len(sample)
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	nf := float64(n)
	a2 := -nf
	for i := 0; i < n; i++ {
		fi := clampUnit(d.CDF(xs[i]))
		fni := clampUnit(d.CDF(xs[n-1-i]))
		a2 -= (2*float64(i) + 1) / nf * (math.Log(fi) + math.Log(1-fni))
	}
	return Result{N: n, D: a2, PValue: adPValue(a2)}
}

// signAwareCDF is a test law whose CDF tells -0 from +0, so a kernel
// that merged the two values would show.
type signAwareCDF struct{ dist.Dist }

func (s signAwareCDF) CDF(x float64) float64 {
	if x == 0 && math.Signbit(x) {
		return 0.99
	}
	return s.Dist.CDF(x)
}

func sameResult(a, b Result) bool {
	return a.N == b.N && math.Float64bits(a.D) == math.Float64bits(b.D) &&
		math.Float64bits(a.PValue) == math.Float64bits(b.PValue)
}

func TestTieReuseBitIdentical(t *testing.T) {
	law, _ := dist.NewLogNormal(0, 7, 0.85)
	raw := dist.SampleN(law, xrand.New(5), 20000)
	ints := make([]float64, len(raw))
	for i, x := range raw {
		ints[i] = math.Ceil(x / 64)
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
	pseudo := sk.FitSample(4096)
	sortedInts := append([]float64(nil), ints...)
	sort.Float64s(sortedInts)
	samples := map[string][]float64{
		"tied-integers":        ints,
		"tied-integers-sorted": sortedInts,
		"sketch-pseudo":        pseudo,
		"raw-unsorted":         raw[:3000],
		"single":               {42},
		"all-equal":            {3, 3, 3, 3},
		"signed-zeros":         {0, 1, math.Copysign(0, -1), 2, 0, math.Copysign(0, -1), 1},
		"signed-zeros-sorted":  {math.Copysign(0, -1), 0, 0, 1, 1},
	}
	exp, _ := dist.NewExponential(1.0 / 1500)
	fitted, _ := dist.NewLogNormal(0, 7, 0.85)
	norm, _ := dist.NewNormal(1, 2)
	laws := map[string]dist.Dist{"exponential": exp, "lognormal": fitted, "sign-aware": signAwareCDF{norm}}
	for sname, xs := range samples {
		in := append([]float64(nil), xs...)
		for lname, d := range laws {
			ks, err := OneSample(xs, d)
			if err != nil {
				t.Fatal(err)
			}
			if want := oneSamplePerObservation(xs, d); !sameResult(ks, want) {
				t.Errorf("%s/%s: OneSample %+v, per-observation %+v", sname, lname, ks, want)
			}
			ad, err := AndersonDarling(xs, d)
			if err != nil {
				t.Fatal(err)
			}
			if want := andersonDarlingPerObservation(xs, d); !sameResult(ad, want) {
				t.Errorf("%s/%s: AndersonDarling %+v, per-observation %+v", sname, lname, ad, want)
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("%s: the tests modified their input at %d", sname, i)
			}
		}
	}
}

// TestAndersonDarlingConcurrent runs the test from several goroutines
// at once: the pooled log buffers must give each caller the serial
// answer.
func TestAndersonDarlingConcurrent(t *testing.T) {
	law, _ := dist.NewLogNormal(0, 7, 0.85)
	samples := make([][]float64, 8)
	want := make([]Result, len(samples))
	for i := range samples {
		samples[i] = dist.SampleN(law, xrand.New(uint64(i)), 200+100*i)
		for j, x := range samples[i] {
			samples[i][j] = math.Ceil(x / 32)
		}
		want[i] = andersonDarlingPerObservation(samples[i], law)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for i := range samples {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := AndersonDarling(samples[i], law)
				if err != nil || !sameResult(got, want[i]) {
					t.Errorf("sample %d: concurrent %+v (%v), serial %+v", i, got, err, want[i])
				}
			}()
		}
	}
	wg.Wait()
}
