// End-to-end tests of the public Campaign → Fit → Predict surface —
// the same path every CLI and example takes.
package lasvegas_test

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"lasvegas"
	"lasvegas/internal/xrand"
)

func collectCostas(t *testing.T, opts ...lasvegas.Option) (*lasvegas.Predictor, *lasvegas.Campaign) {
	t.Helper()
	p := lasvegas.New(append([]lasvegas.Option{
		lasvegas.WithRuns(80), lasvegas.WithSeed(11),
	}, opts...)...)
	c, err := p.Collect(context.Background(), lasvegas.Costas, 10)
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestPipelineCollectFitPredict(t *testing.T) {
	p, c := collectCostas(t)
	if c.Problem == "" || c.Runs != 80 || len(c.Iterations) != 80 {
		t.Fatalf("campaign malformed: %+v", c)
	}
	if c.Size != 10 || c.IsCensored() {
		t.Fatalf("campaign metadata wrong: size=%d censored=%v", c.Size, c.Censored)
	}

	m, err := p.Fit(c)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Accepted() {
		t.Error("Fit returned a rejected model")
	}
	if _, ok := m.GoodnessOfFit(); !ok {
		t.Error("fitted model lost its KS verdict")
	}
	g16, err := m.Speedup(16)
	if err != nil {
		t.Fatal(err)
	}
	g256, err := m.Speedup(256)
	if err != nil {
		t.Fatal(err)
	}
	if !(g16 > 1) || !(g256 > g16) {
		t.Errorf("speed-up not increasing: G(16)=%v G(256)=%v", g16, g256)
	}
	z16, err := m.MinExpectation(16)
	if err != nil {
		t.Fatal(err)
	}
	if !(z16 < m.Mean()) {
		t.Errorf("E[Z(16)]=%v not below E[Y]=%v", z16, m.Mean())
	}
	if q := m.Quantile(0.5); !(q > 0) {
		t.Errorf("median quantile %v", q)
	}

	// Plug-in model from the same campaign tracks the parametric one
	// within a loose factor at small n.
	plug, err := p.PlugIn(c)
	if err != nil {
		t.Fatal(err)
	}
	if plug.Family() != lasvegas.Empirical {
		t.Errorf("plug-in family %q", plug.Family())
	}
	pg16, err := plug.Speedup(16)
	if err != nil {
		t.Fatal(err)
	}
	if pg16 < g16/3 || pg16 > g16*3 {
		t.Errorf("plug-in G(16)=%v far from parametric %v", pg16, g16)
	}

	// Curve honours the context.
	pts, err := m.Curve(context.Background(), []int{2, 4, 8})
	if err != nil || len(pts) != 3 {
		t.Fatalf("curve: %v %v", pts, err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Curve(cancelled, []int{2}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled curve error = %v", err)
	}
}

// drawCampaign is a complete campaign of runs iteration counts, each
// the ceiling of one draw.
func drawCampaign(name string, seed uint64, runs int, draw func(r *xrand.Rand) float64) *lasvegas.Campaign {
	r := xrand.New(seed)
	xs := make([]float64, runs)
	for i := range xs {
		xs[i] = math.Ceil(draw(r))
	}
	return &lasvegas.Campaign{Problem: name, Runs: runs, Seed: seed, Iterations: xs}
}

// fitFamily fits one family to c, whether or not its goodness-of-fit
// test accepts it.
func fitFamily(c *lasvegas.Campaign, f lasvegas.Family) (*lasvegas.Model, error) {
	cands, err := lasvegas.New(lasvegas.WithFamilies(f)).FitAll(c)
	if err != nil {
		return nil, err
	}
	return cands[0].Model, cands[0].Err
}

// checkCurvePointwise asserts that every Curve point of m carries
// Speedup(n) and MinExpectation(n) bit for bit, and that Curve fails
// where a point does.
func checkCurvePointwise(t testing.TB, m *lasvegas.Model, cores []int) {
	t.Helper()
	pts, curveErr := m.Curve(context.Background(), cores)
	for i, n := range cores {
		g, gErr := m.Speedup(n)
		z, zErr := m.MinExpectation(n)
		if (gErr == nil) != (zErr == nil) {
			t.Fatalf("%s n=%d: Speedup error %v, MinExpectation error %v", m, n, gErr, zErr)
		}
		if zErr != nil {
			if curveErr == nil {
				t.Fatalf("%s n=%d: MinExpectation failed (%v) but Curve did not", m, n, zErr)
			}
			return
		}
		if curveErr != nil {
			t.Fatalf("%s: Curve failed (%v) though every point to n=%d evaluates", m, curveErr, n)
		}
		p := pts[i]
		if p.Cores != n || math.Float64bits(p.Speedup) != math.Float64bits(g) ||
			math.Float64bits(p.MeanZ) != math.Float64bits(z) {
			t.Fatalf("%s n=%d: Curve point %+v, want Speedup %v and MeanZ %v", m, n, p, g, z)
		}
	}
	if curveErr != nil {
		t.Fatalf("%s: Curve failed (%v) though every point evaluates", m, curveErr)
	}
}

// TestCurveMatchesPointwise: Curve evaluates E[Z(n)] once per point,
// and each point must still equal Speedup(n) and MinExpectation(n) bit
// for bit, on every law a Model can carry: the closed forms, the
// lognormal quadrature and its heavy-tailed normal-score fallback, the
// plug-in step law, the sketch-backed law and both censored
// estimators. The grid is 1…256 plus fig14's 8192.
func TestCurveMatchesPointwise(t *testing.T) {
	cores := make([]int, 0, 257)
	for n := 1; n <= 256; n++ {
		cores = append(cores, n)
	}
	cores = append(cores, 8192)

	costas, err := lasvegas.LoadCampaign("testdata/campaign_costas13.json")
	if err != nil {
		t.Fatal(err)
	}
	sketched, err := costas.Sketchify(0)
	if err != nil {
		t.Fatal(err)
	}
	censored := loadCensoredFixture(t)
	cens := lasvegas.New(lasvegas.WithCensoredFit(true))
	mustModel := func(m *lasvegas.Model, err error) *lasvegas.Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	heavy := mustModel(fitFamily(drawCampaign("heavy-lognormal", 3, 200, func(r *xrand.Rand) float64 {
		return math.Exp(12 + 4.2*r.Norm())
	}), lasvegas.LogNormal))
	law := heavy.String()
	sigma, err := strconv.ParseFloat(strings.TrimSuffix(law[strings.Index(law, "σ=")+len("σ="):], ")"), 64)
	if err != nil || sigma < 3.8 || sigma > 4.6 {
		t.Fatalf("heavy lognormal fit %s: want σ ≈ 4.2 (%v)", law, err)
	}

	for _, c := range []struct {
		name string
		m    *lasvegas.Model
	}{
		{"exponential", mustModel(fitFamily(drawCampaign("exp", 1, 200, func(r *xrand.Rand) float64 {
			return 1000 * r.Exp()
		}), lasvegas.Exponential))},
		{"shifted-exponential", mustModel(fitFamily(costas, lasvegas.ShiftedExponential))},
		{"lognormal", mustModel(fitFamily(drawCampaign("lognormal", 2, 200, func(r *xrand.Rand) float64 {
			return math.Exp(7 + 0.85*r.Norm())
		}), lasvegas.LogNormal))},
		{"lognormal-heavy", heavy},
		{"plug-in", mustModel(lasvegas.New().PlugIn(costas))},
		{"sketch-fit", mustModel(lasvegas.New().Fit(sketched))},
		{"sketch-plug-in", mustModel(lasvegas.New().PlugIn(sketched))},
		{"censored-mle", mustModel(cens.Fit(censored))},
		{"kaplan-meier", mustModel(cens.PlugIn(censored))},
	} {
		t.Run(c.name, func(t *testing.T) { checkCurvePointwise(t, c.m, cores) })
	}
}

func TestCollectDeterministic(t *testing.T) {
	_, c1 := collectCostas(t)
	_, c2 := collectCostas(t, lasvegas.WithWorkers(1))
	for i := range c1.Iterations {
		if c1.Iterations[i] != c2.Iterations[i] {
			t.Fatalf("run %d: parallel %v vs serial %v", i, c1.Iterations[i], c2.Iterations[i])
		}
	}
}

func TestCollectBasics(t *testing.T) {
	p := lasvegas.New(lasvegas.WithRuns(30), lasvegas.WithSeed(7), lasvegas.WithWorkers(4))
	c, err := p.Collect(context.Background(), lasvegas.Queens, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Runs != 30 || len(c.Iterations) != 30 || len(c.Seconds) != 30 {
		t.Fatalf("campaign shape: %+v", c)
	}
	if c.Problem != "queens-16" {
		t.Errorf("problem name %q", c.Problem)
	}
	for i, it := range c.Iterations {
		if it <= 0 {
			t.Errorf("run %d has %v iterations", i, it)
		}
		if c.Seconds[i] < 0 {
			t.Errorf("run %d has negative seconds", i)
		}
	}
}

func TestCollectValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := lasvegas.New(lasvegas.WithRuns(0)).Collect(ctx, lasvegas.Queens, 8); err == nil {
		t.Error("0 runs accepted")
	}
	if _, err := lasvegas.New(lasvegas.WithRuns(4)).Collect(ctx, lasvegas.Queens, 1); err == nil {
		t.Error("a 1-queen instance accepted")
	}
}

func TestSummaries(t *testing.T) {
	c := &lasvegas.Campaign{
		Problem:    "synthetic",
		Runs:       4,
		Iterations: []float64{10, 20, 30, 100},
		Seconds:    []float64{0.1, 0.2, 0.3, 1.0},
	}
	it := c.IterationSummary()
	if it.Min != 10 || it.Max != 100 || it.Mean != 40 || it.Median != 25 {
		t.Errorf("iteration summary %+v", it)
	}
	ts := c.TimeSummary()
	if ts.Min != 0.1 || ts.Max != 1.0 {
		t.Errorf("time summary %+v", ts)
	}
}

func TestCensoredCampaign(t *testing.T) {
	p := lasvegas.New(lasvegas.WithRuns(30), lasvegas.WithSeed(4), lasvegas.WithBudget(3))
	c, err := p.Collect(context.Background(), lasvegas.Costas, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsCensored() {
		t.Skip("3-iteration budget produced no censored runs (unexpected but possible)")
	}
	if c.Budget != 3 {
		t.Errorf("budget %d not recorded", c.Budget)
	}
	if _, err := p.Fit(c); !errors.Is(err, lasvegas.ErrCensored) {
		t.Errorf("Fit on censored campaign: want ErrCensored, got %v", err)
	}
	if _, err := p.PlugIn(c); !errors.Is(err, lasvegas.ErrCensored) {
		t.Errorf("PlugIn on censored campaign: want ErrCensored, got %v", err)
	}
	if _, err := p.SimulateSpeedups(c, []int{4}); !errors.Is(err, lasvegas.ErrCensored) {
		t.Errorf("SimulateSpeedups on censored campaign: want ErrCensored, got %v", err)
	}
	if got := len(c.Complete()) + len(c.Censored); got != len(c.Iterations) {
		t.Errorf("complete+censored=%d, want %d", got, len(c.Iterations))
	}
}

// TestSATCollectAndRace: SAT3 collects a well-formed campaign and
// races on it, and for every problem a one-walker race runs the
// instance and random stream of a one-run campaign with the same seed,
// because one runner serves both.
func TestSATCollectAndRace(t *testing.T) {
	ctx := context.Background()
	p := lasvegas.New(lasvegas.WithRuns(40), lasvegas.WithSeed(9))
	c, err := p.Collect(ctx, lasvegas.SAT3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Problem != "sat-3-50" || len(c.Iterations) != 40 {
		t.Fatalf("sat campaign malformed: %+v", c)
	}
	for i, x := range c.Iterations {
		if !(x > 0) {
			t.Fatalf("run %d: non-positive flips %v", i, x)
		}
	}
	out, err := p.Race(ctx, lasvegas.SAT3, 50, 4, 123)
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner < 0 || out.Winner >= 4 || out.Iterations < 1 {
		t.Errorf("race outcome %+v", out)
	}

	sizes := map[lasvegas.Problem]int{
		lasvegas.AllInterval: 14, lasvegas.Costas: 10, lasvegas.MagicSquare: 5,
		lasvegas.Queens: 30, lasvegas.SAT3: 50,
	}
	for _, prob := range lasvegas.Problems() {
		size, ok := sizes[prob]
		if !ok {
			t.Fatalf("no test size for %s", prob)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			race, err := lasvegas.New(lasvegas.WithSeed(seed)).Race(ctx, prob, size, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			c, err := lasvegas.New(lasvegas.WithRuns(1), lasvegas.WithSeed(seed)).Collect(ctx, prob, size)
			if err != nil {
				t.Fatal(err)
			}
			if float64(race.Iterations) != c.Iterations[0] {
				t.Errorf("%s-%d seed %d: race took %d iterations, the campaign's run %v",
					prob, size, seed, race.Iterations, c.Iterations[0])
			}
		}
	}
}

// TestCollectExpiredContext: every collect path answers a done context
// with the context's error, which lvserve maps to 499.
func TestCollectExpiredContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		name string
		prob lasvegas.Problem
		size int
		opts []lasvegas.Option
	}{
		{"default", lasvegas.Costas, 10, nil},
		{"budgeted", lasvegas.Costas, 10, []lasvegas.Option{lasvegas.WithBudget(1 << 20)}},
		{"sharded", lasvegas.Costas, 10, []lasvegas.Option{lasvegas.WithShard(1, 3)}},
		{"sat-3", lasvegas.SAT3, 50, nil},
	} {
		p := lasvegas.New(append([]lasvegas.Option{lasvegas.WithRuns(12)}, tc.opts...)...)
		if _, err := p.Collect(ctx, tc.prob, tc.size); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: want context.DeadlineExceeded, got %v", tc.name, err)
		}
	}
}

func TestUnknownProblem(t *testing.T) {
	p := lasvegas.New()
	if _, err := p.Collect(context.Background(), lasvegas.Problem("tsp"), 10); !errors.Is(err, lasvegas.ErrUnknownProblem) {
		t.Errorf("want ErrUnknownProblem, got %v", err)
	}
	if _, err := lasvegas.ParseSizes("tsp=3"); !errors.Is(err, lasvegas.ErrUnknownProblem) {
		t.Errorf("ParseSizes: want ErrUnknownProblem, got %v", err)
	}
}

func TestNoAcceptableFit(t *testing.T) {
	// A bimodal two-atom sample fits no continuous family.
	c := &lasvegas.Campaign{Problem: "synthetic", Runs: 40}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			c.Iterations = append(c.Iterations, 1)
		} else {
			c.Iterations = append(c.Iterations, 1e6)
		}
	}
	p := lasvegas.New()
	if _, err := p.Fit(c); !errors.Is(err, lasvegas.ErrNoAcceptableFit) {
		t.Errorf("want ErrNoAcceptableFit, got %v", err)
	}
}

func TestParseCores(t *testing.T) {
	cores, err := lasvegas.ParseCores("16, 32,64")
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 3 || cores[0] != 16 || cores[2] != 64 {
		t.Errorf("cores = %v", cores)
	}
	if _, err := lasvegas.ParseCores("16,zero"); err == nil {
		t.Error("bad core count accepted")
	}
	sizes, err := lasvegas.ParseSizes("costas=11, magic-square=5")
	if err != nil {
		t.Fatal(err)
	}
	if sizes[lasvegas.Costas] != 11 || sizes[lasvegas.MagicSquare] != 5 {
		t.Errorf("sizes = %v", sizes)
	}
}
