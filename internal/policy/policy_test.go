package policy

import (
	"math"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// must unwraps a distribution constructor; construction of fixed
// test laws cannot fail.
func must[D dist.Dist](d D, err error) dist.Dist {
	if err != nil {
		panic(err)
	}
	return d
}

// TestExpectedMatchesRestart pins the fixed-cutoff closed form to an
// independent formulation of the same restart strategy: the
// geometric-trials decomposition E[T] = c·(1−F)/F + E[Y | Y ≤ c], with
// E[Y | Y ≤ c]·F(c) = c·F(c) − ∫₀ᶜ F by parts and the integral taken
// as a plain midpoint sum rather than by tanh-sinh.
func TestExpectedMatchesRestart(t *testing.T) {
	laws := []struct {
		name string
		d    dist.Dist
	}{
		{"exponential", must(dist.NewExponential(0.01))},
		{"lognormal", must(dist.NewLogNormal(0, 5, 1.5))},
		{"weibull-0.5", must(dist.NewWeibull(0.5, 200))},
	}
	for _, law := range laws {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			c := law.d.Quantile(q)
			fc := law.d.CDF(c)
			want := c*(1-fc)/fc + (c*fc-midpointCDF(law.d, c))/fc
			got, err := Expected(law.d, Policy{Kind: FixedCutoff, Cutoff: c})
			if err != nil {
				t.Fatalf("%s q=%v: Expected: %v", law.name, q, err)
			}
			// The midpoint sum is the looser side: ~6e-9 relative on the
			// k = 0.5 Weibull, whose CDF grows like √t at 0.
			if rel := math.Abs(got-want) / want; rel > 1e-7 {
				t.Errorf("%s cutoff q(%v)=%v: closed form %v vs geometric trials %v (rel %v)", law.name, q, c, got, want, rel)
			}
		}
	}
}

// TestExpectedRuntimeMatchesMonteCarloFormula checks the same
// geometric-trials decomposition at one cutoff above the scale of a
// k = 0.7 Weibull, where F(c) is well away from 0 and 1.
func TestExpectedRuntimeMatchesMonteCarloFormula(t *testing.T) {
	d := must(dist.NewWeibull(0.7, 100))
	c := 150.0
	got, err := Expected(d, Policy{Kind: FixedCutoff, Cutoff: c})
	if err != nil {
		t.Fatal(err)
	}
	// E[Y | Y ≤ c]·F(c) = ∫₀ᶜ t f(t) dt = c·F(c) − ∫₀ᶜ F (by parts)
	fc := d.CDF(c)
	want := c*(1-fc)/fc + (c*fc-midpointCDF(d, c))/fc
	if rel := math.Abs(got-want) / want; rel > 1e-6 {
		t.Errorf("closed form %v vs geometric trials %v (rel %v)", got, want, rel)
	}
}

// midpointCDF integrates d's CDF over [0, c] by a 200k-point midpoint
// sum.
func midpointCDF(d dist.Dist, c float64) float64 {
	const steps = 200000
	h := c / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += d.CDF((float64(i) + 0.5) * h)
	}
	return sum * h
}

// TestExpectedValidation: a nil law and a non-positive cutoff are
// errors, not prices.
func TestExpectedValidation(t *testing.T) {
	d := must(dist.NewExponential(1))
	if _, err := Expected(nil, Policy{Kind: FixedCutoff, Cutoff: 1}); err == nil {
		t.Error("Expected accepted a nil distribution")
	}
	if _, _, err := Optimal(nil); err == nil {
		t.Error("Optimal accepted a nil distribution")
	}
	if _, err := Panel(nil); err == nil {
		t.Error("Panel accepted a nil distribution")
	}
	for _, c := range []float64{0, -1, math.NaN()} {
		if _, err := Expected(d, Policy{Kind: FixedCutoff, Cutoff: c}); err == nil {
			t.Errorf("cutoff %v accepted", c)
		}
	}
}

// TestExponentialMemoryless: for the unshifted exponential, restarts
// are exactly neutral — E[T(c)] = 1/λ for every cutoff.
func TestExponentialMemoryless(t *testing.T) {
	d := must(dist.NewExponential(0.001))
	for _, c := range []float64{50, 500, 5000, 50000} {
		e, err := Expected(d, Policy{Kind: FixedCutoff, Cutoff: c})
		if err != nil {
			t.Fatalf("c=%v: %v", c, err)
		}
		if rel := math.Abs(e-1000) / 1000; rel > 1e-6 {
			t.Errorf("c=%v: E[T] = %v, want 1000", c, e)
		}
	}
}

// TestShiftedExponentialRestartsHurt: each restart repays the x0
// entry cost, so E[T(c)] ≥ E[Y] for any finite cutoff and the optimal
// policy is to never restart.
func TestShiftedExponentialRestartsHurt(t *testing.T) {
	d := must(dist.NewShiftedExponential(100, 1e-3))
	meanY := d.Mean() // 1100
	for _, c := range []float64{150, 400, 2000, 20000} {
		e, err := Expected(d, Policy{Kind: FixedCutoff, Cutoff: c})
		if err != nil {
			t.Fatalf("c=%v: %v", c, err)
		}
		if e < meanY*(1-1e-9) {
			t.Errorf("cutoff %v: E[T]=%v beats E[Y]=%v for a shifted exponential", c, e, meanY)
		}
	}
	p, e, err := Optimal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Cutoff, 1) {
		t.Errorf("optimal cutoff %v, want +Inf (never restart)", p.Cutoff)
	}
	if e != meanY || meanY/e != 1 {
		t.Errorf("never-restart price %v (gain %v), want E[Y] = %v (gain 1)", e, meanY/e, meanY)
	}
}

// TestLevyFiniteCutoff: with an infinite mean, any sensible cutoff
// gives a finite expected runtime — the textbook argument for
// restarts.
func TestLevyFiniteCutoff(t *testing.T) {
	d := must(dist.NewLevy(0, 100))
	e, err := Expected(d, Policy{Kind: FixedCutoff, Cutoff: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(e, 1) || !(e > 0) {
		t.Errorf("E[T(1000)] = %v for Lévy", e)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	for i, w := range want {
		if got := lubyTerm(i + 1); got != w {
			t.Fatalf("lubyTerm(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// TestSimulateConvergesToClosedForm is the core simulator property:
// at a fixed seed and 200k reps, the replayed mean must sit within a
// few standard errors of the closed-form price, on every family and
// every policy kind.
func TestSimulateConvergesToClosedForm(t *testing.T) {
	laws := []struct {
		name string
		d    dist.Dist
	}{
		{"exponential", must(dist.NewExponential(0.01))},
		{"lognormal", must(dist.NewLogNormal(0, 5, 1.2))},
		// Shape > 1: increasing hazard, so the fitted optimum is
		// "never restart" and the replay stays cheap. Shape < 1
		// optima (cutoff → 0, ~1/F(c) attempts per rep) are priced in
		// closed form by the universality and optimal-property tests.
		{"weibull", must(dist.NewWeibull(1.4, 150))},
	}
	const reps = 50_000
	for li, law := range laws {
		policies := []Policy{
			{Kind: NoRestart},
			{Kind: FixedCutoff, Cutoff: law.d.Quantile(0.5)},
			{Kind: Luby, Unit: law.d.Quantile(0.05)},
		}
		optP, _, err := Optimal(law.d)
		if err != nil {
			t.Fatalf("%s: Optimal: %v", law.name, err)
		}
		policies = append(policies, optP)
		for pi, p := range policies {
			want, err := Expected(law.d, p)
			if err != nil {
				t.Fatalf("%s/%s: Expected: %v", law.name, p.Kind, err)
			}
			seed := uint64(0xC0FFEE + 1000*li + pi)
			sim, err := Simulate(law.d, p, reps, seed)
			if err != nil {
				t.Fatalf("%s/%s: Simulate: %v", law.name, p.Kind, err)
			}
			// 5σ Monte Carlo band plus a small relative floor for
			// quadrature error in `want`.
			tol := 5*sim.StdErr + 1e-6*want
			if math.Abs(sim.Mean-want) > tol {
				t.Errorf("%s/%s: simulated %v vs closed form %v (tol %v, stderr %v)",
					law.name, p.Kind, sim.Mean, want, tol, sim.StdErr)
			}
		}
	}
}

// TestSimulateDeterministic: same seed, same replay, bit for bit.
func TestSimulateDeterministic(t *testing.T) {
	d := must(dist.NewLogNormal(0, 4, 1))
	p := Policy{Kind: Luby, Unit: d.Quantile(0.05)}
	a, err := Simulate(d, p, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(d, p, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Simulate(d, p, 5000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatalf("different seeds produced identical replay %+v", a)
	}
}

// TestLubyWithinUniversalityFactor: the Luby schedule's price must
// stay within its O(log) universality guarantee of the fitted
// optimum. LSZ prove E[Luby] ≤ 192·ℓ*(log₂(ℓ*)+5) in a discrete-time
// model where ℓ* is measured in multiples of the base unit and the
// unit does not exceed the optimal cutoff — so the test normalizes by
// the unit and clamps it below the fitted optimum, covering even the
// Weibull shape<1 case whose optimal cutoff collapses toward zero.
func TestLubyWithinUniversalityFactor(t *testing.T) {
	laws := []struct {
		name string
		d    dist.Dist
	}{
		{"exponential", must(dist.NewExponential(0.01))},
		{"lognormal-heavy", must(dist.NewLogNormal(0, 5, 2))},
		{"weibull-heavy", must(dist.NewWeibull(0.4, 100))},
	}
	for _, law := range laws {
		optP, optE, err := Optimal(law.d)
		if err != nil {
			t.Fatalf("%s: Optimal: %v", law.name, err)
		}
		u := law.d.Quantile(0.05)
		if !math.IsInf(optP.Cutoff, 1) && optP.Cutoff < u {
			u = optP.Cutoff
		}
		luby, err := Expected(law.d, Policy{Kind: Luby, Unit: u})
		if err != nil {
			t.Fatalf("%s: luby price: %v", law.name, err)
		}
		optUnits := math.Max(optE/u, 2)
		lubyUnits := luby / u
		bound := 192 * optUnits * (math.Log2(optUnits) + 5)
		if lubyUnits > bound {
			t.Errorf("%s: Luby %v unit-multiples exceeds LSZ universality bound %v (opt %v, unit %v)",
				law.name, lubyUnits, bound, optE, u)
		}
	}
}

// TestOptimalProperties: fitted-optimal never prices above
// no-restart; on heavy tails it is strictly better with a finite
// cutoff; on exponential laws memorylessness forces equality with an
// infinite cutoff.
func TestOptimalProperties(t *testing.T) {
	heavy := []struct {
		name string
		d    dist.Dist
	}{
		{"lognormal-heavy", must(dist.NewLogNormal(0, 5, 2))},
		{"weibull-heavy", must(dist.NewWeibull(0.4, 100))},
	}
	for _, law := range heavy {
		p, e, err := Optimal(law.d)
		if err != nil {
			t.Fatalf("%s: %v", law.name, err)
		}
		mean := law.d.Mean()
		if e > mean {
			t.Errorf("%s: optimum %v worse than no-restart %v", law.name, e, mean)
		}
		if math.IsInf(p.Cutoff, 1) || !(e < 0.9*mean) {
			t.Errorf("%s: expected a strict finite-cutoff win, got cutoff %v price %v (mean %v)", law.name, p.Cutoff, e, mean)
		}
	}
	exp := must(dist.NewExponential(0.02))
	p, e, err := Optimal(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Cutoff, 1) {
		t.Errorf("exponential: optimal cutoff should be +Inf (memoryless), got %v", p.Cutoff)
	}
	if rel := math.Abs(e-exp.Mean()) / exp.Mean(); rel > 1e-9 {
		t.Errorf("exponential: optimal price %v != mean %v", e, exp.Mean())
	}
}

// TestHeavyTailRestartsHelp: a high-σ lognormal has a heavy tail; a
// finite cutoff must beat running to completion by a wide margin, and
// the cutoff found must be a true minimum.
func TestHeavyTailRestartsHelp(t *testing.T) {
	d := must(dist.NewLogNormal(0, 5, 2.5))
	p, e, err := Optimal(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(p.Cutoff, 1) {
		t.Fatal("no finite optimal cutoff found for a heavy-tailed law")
	}
	if gain := d.Mean() / e; gain < 1.5 {
		t.Errorf("restart gain %v, expected substantial (>1.5) for σ=2.5 lognormal", gain)
	}
	// The optimum must actually be a minimum: cutoffs a factor of four
	// either side are no better.
	for _, factor := range []float64{0.25, 4} {
		ef, err := Expected(d, Policy{Kind: FixedCutoff, Cutoff: p.Cutoff * factor})
		if err != nil {
			t.Fatal(err)
		}
		if ef < e*(1-1e-6) {
			t.Errorf("cutoff %v×%v prices %v, below the optimum %v", p.Cutoff, factor, ef, e)
		}
	}
}

// TestLubyOnExponentialIsNeutral: by memorylessness the Luby series
// telescopes to exactly E[Y] on an exponential law — the analytic
// identity Σᵢ S(cᵢ₋ accumulated)·E[min(Y,cᵢ)] = E[Y].
func TestLubyOnExponentialIsNeutral(t *testing.T) {
	d := must(dist.NewExponential(0.01))
	got, err := Expected(d, Policy{Kind: Luby, Unit: d.Quantile(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-d.Mean()) / d.Mean(); rel > 1e-6 {
		t.Errorf("Luby on exponential: %v vs mean %v (rel %v)", got, d.Mean(), rel)
	}
}

// TestStepLawPricingExact: on an Empirical law the closed forms must
// be exact (TruncatedMean fast path), agreeing with a brute-force
// enumeration of the LSZ formula over the sample.
func TestStepLawPricingExact(t *testing.T) {
	r := xrand.New(7)
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = math.Exp(r.Norm()*1.5 + 3)
	}
	e := must(dist.NewEmpirical(sample)).(*dist.Step)
	for _, q := range []float64{0.2, 0.5, 0.8} {
		c := e.Quantile(q)
		// Brute force E[min(Y,c)]/F(c).
		var tm, below float64
		for _, x := range e.Sorted() {
			if x <= c {
				tm += x
				below++
			} else {
				tm += c
			}
		}
		tm /= float64(e.Len())
		want := tm / (below / float64(e.Len()))
		got, err := Expected(e, Policy{Kind: FixedCutoff, Cutoff: c})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("q=%v: %v vs brute force %v", q, got, want)
		}
	}
}

// TestPanelRankingAndWinner: the panel is sorted by price, carries
// all four kinds exactly once, and picks deterministic winners:
// no-restart on exponential, fitted-optimal on a heavy tail.
func TestPanelRankingAndWinner(t *testing.T) {
	exp := must(dist.NewExponential(0.01))
	evals, err := Panel(exp)
	if err != nil {
		t.Fatal(err)
	}
	checkPanelShape(t, evals)
	if evals[0].Policy.Kind != NoRestart {
		t.Errorf("exponential winner = %s, want no-restart", evals[0].Policy.Kind)
	}

	heavy := must(dist.NewLogNormal(0, 5, 2))
	evals, err = Panel(heavy)
	if err != nil {
		t.Fatal(err)
	}
	checkPanelShape(t, evals)
	if evals[0].Policy.Kind != FittedOptimal {
		t.Errorf("heavy-tail winner = %s, want fitted-optimal", evals[0].Policy.Kind)
	}
	if evals[0].Gain <= 1 {
		t.Errorf("heavy-tail winner gain = %v, want > 1", evals[0].Gain)
	}
}

func checkPanelShape(t *testing.T, evals []Evaluation) {
	t.Helper()
	if len(evals) != 4 {
		t.Fatalf("panel has %d rows, want 4", len(evals))
	}
	seen := map[Kind]bool{}
	for i, e := range evals {
		if seen[e.Policy.Kind] {
			t.Errorf("kind %s appears twice", e.Policy.Kind)
		}
		seen[e.Policy.Kind] = true
		if i > 0 && e.Expected < evals[i-1].Expected && !priceTied(e.Expected, evals[i-1].Expected) {
			t.Errorf("panel not sorted: row %d (%v) < row %d (%v)", i, e.Expected, i-1, evals[i-1].Expected)
		}
	}
}

// TestBootstrapCI: the percentile interval from an Empirical source
// must bracket the closed-form price of the law it resamples, be
// deterministic per seed, and be ordered.
func TestBootstrapCI(t *testing.T) {
	r := xrand.New(11)
	sample := make([]float64, 400)
	for i := range sample {
		sample[i] = r.Exp() * 120
	}
	e := must(dist.NewEmpirical(sample))
	p := Policy{Kind: FixedCutoff, Cutoff: e.Quantile(0.5)}
	want, err := Expected(e, p)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := BootstrapCI(e, 400, p, 400, 0.95, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !(ci.Lo <= ci.Hi) {
		t.Fatalf("interval inverted: %+v", ci)
	}
	if want < ci.Lo || want > ci.Hi {
		t.Errorf("closed form %v outside 95%% CI [%v, %v]", want, ci.Lo, ci.Hi)
	}
	again, err := BootstrapCI(e, 400, p, 400, 0.95, 99)
	if err != nil {
		t.Fatal(err)
	}
	if ci != again {
		t.Fatalf("same seed, different interval: %+v vs %+v", ci, again)
	}
}

// TestNeverSucceedingCutoffPricesInfinite: a cutoff below the support
// is an infinitely bad row, not an error — and the replay refuses it
// with a typed failure instead of spinning forever.
func TestNeverSucceedingCutoffPricesInfinite(t *testing.T) {
	d := must(dist.NewShiftedExponential(50, 0.01))
	got, err := Expected(d, Policy{Kind: FixedCutoff, Cutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("price below support = %v, want +Inf", got)
	}
	if _, err := Simulate(d, Policy{Kind: FixedCutoff, Cutoff: 10}, 10, 1); err == nil {
		t.Fatal("replay below support should fail, got nil error")
	}
}

// TestTruncatedMeanAgreesWithQuadrature cross-checks the exact step
// fast path against tanh-sinh on a smooth law where both work.
func TestTruncatedMeanAgreesWithQuadrature(t *testing.T) {
	d := must(dist.NewWeibull(1.3, 90))
	for _, q := range []float64{0.3, 0.7} {
		c := d.Quantile(q)
		viaQuad, err := truncMean(d, c)
		if err != nil {
			t.Fatal(err)
		}
		// Monte Carlo reference.
		r := xrand.New(5)
		var sum float64
		const n = 150_000
		for i := 0; i < n; i++ {
			y := d.Quantile(r.Float64Open())
			sum += math.Min(y, c)
		}
		mc := sum / n
		if rel := math.Abs(viaQuad-mc) / mc; rel > 0.01 {
			t.Errorf("q=%v: truncMean %v vs MC %v", q, viaQuad, mc)
		}
	}
}
