package policy

import (
	"math"
	"sort"
	"sync"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/sketch"
	"lasvegas/internal/survival"
	"lasvegas/internal/xrand"
)

// stepSources returns one step-law source of every kind the counting
// bootstrap serves: unit-weight and weighted dist.Step, an exact and a
// compacted sketch, and a censored Kaplan–Meier law, all atom-heavy.
func stepSources(t *testing.T) map[string]dist.Dist {
	t.Helper()
	law, _ := dist.NewLogNormal(0, 7, 0.85)
	raw := dist.SampleN(law, xrand.New(17), 20000)
	for i, x := range raw {
		raw[i] = math.Ceil(x / 16)
	}
	emp, err := dist.NewEmpirical(raw[:500])
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{2, 3, 5, 7, 11, 13, 17, 19, 23}
	cum := []float64{1, 3, 4, 8, 16, 17, 19, 27, 28}
	weighted := dist.NewStep(xs, cum, nil, xs[0], xs[len(xs)-1])
	exact, _ := sketch.New(0)
	compacted, _ := sketch.New(0)
	if err := exact.AddAll(raw[:300]); err != nil {
		t.Fatal(err)
	}
	if err := compacted.AddAll(raw); err != nil {
		t.Fatal(err)
	}
	if !exact.Exact() || compacted.Exact() {
		t.Fatal("sketch fixtures are not one exact and one compacted")
	}
	flags := make([]bool, 400)
	budget := 120.0
	values := append([]float64(nil), raw[:400]...)
	for i, v := range values {
		if v >= budget {
			values[i], flags[i] = budget, true
		}
	}
	km, err := survival.NewKaplanMeier(values, flags)
	if err != nil {
		t.Fatal(err)
	}
	if km.CensoredCount() == 0 {
		t.Fatal("Kaplan–Meier fixture is not censored")
	}
	return map[string]dist.Dist{
		"unit-step": emp, "weighted-step": &weighted,
		"exact-sketch": exact, "compacted-sketch": compacted, "censored-km": km,
	}
}

// TestCountedResampleMatchesSortedQuantiles pins the counting
// resampler to the buffer it replaces: the quantiles of the same
// uniforms, sorted.
func TestCountedResampleMatchesSortedQuantiles(t *testing.T) {
	for name, src := range stepSources(t) {
		sd := newStepDraws(src)
		if sd == nil {
			t.Fatalf("%s: no step law", name)
		}
		for _, n := range []int{1, 7, 200, 2048} {
			got, want := make([]float64, n), make([]float64, n)
			rc, rq := xrand.New(uint64(n)), xrand.New(uint64(n))
			for rep := 0; rep < 5; rep++ {
				sd.resample(got, rc)
				for i := range want {
					want[i] = src.Quantile(rq.Float64Open())
				}
				sort.Float64s(want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d rep %d: counted[%d] = %v, sorted quantiles %v", name, n, rep, i, got[i], want[i])
					}
				}
			}
		}
		sd.release()
	}
}

// bootstrapSorted and simulateQuantile are BootstrapCI and Simulate
// drawing through Quantile and sorting, the loops the atom-index paths
// must reproduce bit for bit.
func bootstrapSorted(src dist.Dist, n int, p Policy, resamples int, level float64, seed uint64) CI {
	n = min(n, maxBootstrapSample)
	r := xrand.New(seed)
	prices := make([]float64, resamples)
	xs := make([]float64, n)
	for b := range prices {
		for i := range xs {
			xs[i] = src.Quantile(r.Float64Open())
		}
		sort.Float64s(xs)
		law := dist.NewStep(xs, nil, nil, xs[0], xs[n-1])
		v, err := price(&law, p)
		if err != nil {
			v = math.Inf(1)
		}
		prices[b] = v
	}
	sort.Float64s(prices)
	alpha := (1 - level) / 2
	ranked := dist.NewStep(prices, nil, nil, prices[0], prices[resamples-1])
	return CI{Lo: ranked.Quantile(alpha), Hi: ranked.Quantile(1 - alpha), Level: level}
}

func simulateQuantile(d dist.Dist, p Policy, reps int, seed uint64) SimResult {
	r := xrand.New(seed)
	var sum, sumsq float64
	for rep := 0; rep < reps; rep++ {
		var t float64
		for i := 1; ; i++ {
			c := p.CutoffAt(i)
			y := d.Quantile(r.Float64Open())
			if y <= c {
				t += y
				break
			}
			t += c
		}
		sum += t
		sumsq += t * t
	}
	nf := float64(reps)
	mean := sum / nf
	variance := max(sumsq/nf-mean*mean, 0)
	return SimResult{Reps: reps, Mean: mean, StdErr: math.Sqrt(variance / nf)}
}

func TestBootstrapAndSimulateMatchQuantilePath(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, src := range stepSources(t) {
		med := src.Quantile(0.5)
		for _, p := range []Policy{
			{Kind: NoRestart},
			{Kind: FixedCutoff, Cutoff: med},
			{Kind: Luby, Unit: src.Quantile(0.05)},
		} {
			for _, n := range []int{40, 5000} {
				got, err := BootstrapCI(src, n, p, 60, 0.9, 9)
				if err != nil {
					t.Fatal(err)
				}
				want := bootstrapSorted(src, n, p, 60, 0.9, 9)
				if !same(got.Lo, want.Lo) || !same(got.Hi, want.Hi) {
					t.Errorf("%s %s n=%d: counted CI %+v, sorted %+v", name, p.Kind, n, got, want)
				}
			}
			got, err := Simulate(src, p, 500, 3)
			if err != nil {
				t.Fatal(err)
			}
			if want := simulateQuantile(src, p, 500, 3); !same(got.Mean, want.Mean) || !same(got.StdErr, want.StdErr) {
				t.Errorf("%s %s: indexed replay %+v, quantile replay %+v", name, p.Kind, got, want)
			}
		}
	}
}

// TestStepDrawsConcurrent runs bootstraps and replays of every step
// source from several goroutines at once: the pooled draw buffers must
// give each caller the serial answer.
func TestStepDrawsConcurrent(t *testing.T) {
	sources := stepSources(t)
	type answer struct {
		ci  CI
		sim SimResult
	}
	run := func(src dist.Dist) answer {
		p := Policy{Kind: FixedCutoff, Cutoff: src.Quantile(0.5)}
		ci, err := BootstrapCI(src, 300, p, 20, 0.9, 5)
		if err != nil {
			t.Error(err)
		}
		sim, err := Simulate(src, p, 200, 6)
		if err != nil {
			t.Error(err)
		}
		return answer{ci, sim}
	}
	want := map[string]answer{}
	for name, src := range sources {
		want[name] = run(src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for name, src := range sources {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := run(src); got != want[name] {
					t.Errorf("%s: concurrent %+v, serial %+v", name, got, want[name])
				}
			}()
		}
	}
	wg.Wait()
}
