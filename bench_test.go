// Benchmarks regenerating every table and figure of the paper (one
// bench per artifact, in paper-replay mode so a full -bench=. pass
// stays in CI budget) plus the ablation benches called out in
// DESIGN.md §5. Run:
//
//	go test -bench=. -benchmem
package lasvegas_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"lasvegas"
	"lasvegas/internal/adaptive"
	"lasvegas/internal/core"
	"lasvegas/internal/csp"
	"lasvegas/internal/dist"
	"lasvegas/internal/experiments"
	"lasvegas/internal/multiwalk"
	"lasvegas/internal/orderstat"
	"lasvegas/internal/paperdata"
	"lasvegas/internal/problems"
	"lasvegas/internal/xrand"
)

// benchArtifact regenerates one experiment per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	lab := experiments.NewLab(experiments.Config{Paper: true, SimReps: 300})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Run(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SequentialTimes(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkTable2SequentialIters(b *testing.B) { benchArtifact(b, "table2") }
func BenchmarkTable3TimeSpeedups(b *testing.B)    { benchArtifact(b, "table3") }
func BenchmarkTable4IterSpeedups(b *testing.B)    { benchArtifact(b, "table4") }
func BenchmarkTable5PredVsActual(b *testing.B)    { benchArtifact(b, "table5") }
func BenchmarkFig1GaussianMin(b *testing.B)       { benchArtifact(b, "fig1") }
func BenchmarkFig2ExpMin(b *testing.B)            { benchArtifact(b, "fig2") }
func BenchmarkFig3ExpSpeedup(b *testing.B)        { benchArtifact(b, "fig3") }
func BenchmarkFig4LognormalMin(b *testing.B)      { benchArtifact(b, "fig4") }
func BenchmarkFig5LognormalSpeedup(b *testing.B)  { benchArtifact(b, "fig5") }
func BenchmarkFig6CSPLibSpeedups(b *testing.B)    { benchArtifact(b, "fig6") }
func BenchmarkFig7CostasSpeedups(b *testing.B)    { benchArtifact(b, "fig7") }
func BenchmarkFig8AIHistogram(b *testing.B)       { benchArtifact(b, "fig8") }
func BenchmarkFig9AIPrediction(b *testing.B)      { benchArtifact(b, "fig9") }
func BenchmarkFig10MSHistogram(b *testing.B)      { benchArtifact(b, "fig10") }
func BenchmarkFig11MSPrediction(b *testing.B)     { benchArtifact(b, "fig11") }
func BenchmarkFig12CostasHistogram(b *testing.B)  { benchArtifact(b, "fig12") }
func BenchmarkFig13CostasPrediction(b *testing.B) { benchArtifact(b, "fig13") }
func BenchmarkFig14Costas8192(b *testing.B)       { benchArtifact(b, "fig14") }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationQuantileVsTimeDomain compares the two E[Z(n)]
// integration strategies on the paper's MS 200 lognormal at n=256.
func BenchmarkAblationQuantileVsTimeDomain(b *testing.B) {
	d := paperdata.FittedMS200()
	b.Run("quantile-domain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := orderstat.Moment(d, 256, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("time-domain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := orderstat.MeanMinTimeDomain(d, 256); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEmpiricalVsParametric compares the plug-in
// empirical predictor against the parametric closed form on a
// 650-observation pool across the paper's core grid.
func BenchmarkAblationEmpiricalVsParametric(b *testing.B) {
	truth := paperdata.FittedAI700()
	sample := dist.SampleN(truth, xrand.New(1), 650)
	emp, err := core.NewEmpirical(sample)
	if err != nil {
		b.Fatal(err)
	}
	par, err := core.NewPredictor(truth)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plug-in-empirical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, n := range paperdata.Cores {
				if _, err := emp.Speedup(n); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parametric-closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, n := range paperdata.Cores {
				if _, err := par.Speedup(n); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// plainProblem hides the incremental interface, forcing the solver's
// swap-recompute-swap fallback.
type plainProblem struct{ csp.Problem }

// BenchmarkAblationIncrementalCost measures one full Adaptive Search
// solve of all-interval-14 with and without incremental swap deltas.
func BenchmarkAblationIncrementalCost(b *testing.B) {
	solve := func(b *testing.B, wrap bool) {
		for i := 0; i < b.N; i++ {
			p, err := problems.New(problems.AllInterval, 14)
			if err != nil {
				b.Fatal(err)
			}
			var prob csp.Problem = p
			if wrap {
				prob = plainProblem{p}
			}
			s, err := adaptive.New(prob, adaptive.Params{})
			if err != nil {
				b.Fatal(err)
			}
			if res := s.Run(xrand.New(uint64(i % benchSeeds))); !res.Solved {
				b.Fatal("unsolved")
			}
		}
	}
	b.Run("incremental-O(1)-swaps", func(b *testing.B) { solve(b, false) })
	b.Run("full-recompute-swaps", func(b *testing.B) { solve(b, true) })
}

// BenchmarkAblationMinResampling compares the two Z(n) simulation
// engines at the acceptance point of the Figure-14 regime: n=8192
// walkers, 3000 repetitions on a 4000-observation pool. The
// inverse-CDF engine is O(m log m + reps); the brute engine is
// O(n·reps) — the gap is the whole point of the quantile-domain fast
// path.
func BenchmarkAblationMinResampling(b *testing.B) {
	truth := paperdata.FittedCostas21()
	pool := dist.SampleN(truth, xrand.New(1), 4000)
	const n, reps = 8192, 3000
	b.Run("inverse-cdf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multiwalk.Simulate(pool, n, reps, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute-min-of-n", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multiwalk.SimulateBrute(pool, n, reps, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRealVsSimulatedWalk compares one multi-walk
// measurement through the real goroutine engine and through
// min-resampling, at 4 walkers on queens-20.
func BenchmarkAblationRealVsSimulatedWalk(b *testing.B) {
	factory := func() (csp.Problem, error) { return problems.New(problems.Queens, 20) }
	runner, err := multiwalk.SolverRunner(factory, adaptive.Params{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	pool := make([]float64, 100)
	for i := range pool {
		out, err := multiwalk.Run(ctx, runner, multiwalk.Options{Walkers: 1, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		pool[i] = float64(out.Iterations)
	}
	b.ResetTimer()
	b.Run("real-goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multiwalk.Run(ctx, runner, multiwalk.Options{Walkers: 4, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulated-min-resampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := multiwalk.Simulate(pool, 4, 1, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSketchIngest pits the two ways of turning a 100k-run
// stream into a queryable runtime law against each other: folding
// into the mergeable quantile sketch (the lvserve NDJSON ingest path)
// versus materializing the full sample as an Empirical (the
// raw-campaign path). Ingest time is at parity (BENCH_5: 11.7 vs
// 12.3 ms). The sketch allocates more often (BENCH_5: 109 vs 2 allocs
// per stream), because each compactor level grows by append as the
// stream arrives, while the empirical sizes one array for a sample it
// already holds; it allocates under a third of the bytes. The
// retained-vals/op column is the point: the sketch holds
// O(k·log(n/k)) values live however long the stream runs, the
// empirical all n. sketch-fold-100k-atoms folds ⌈LogNormal(7, 0.85)⌉
// integer counts instead, the atom-heavy shape of the served streams.
func BenchmarkSketchIngest(b *testing.B) {
	const runs = 100_000
	sample := make([]float64, runs)
	for i := range sample {
		sample[i] = float64(1 + (i*7919)%999983)
	}
	atoms := make([]float64, runs)
	r := xrand.New(100)
	for i := range atoms {
		atoms[i] = math.Ceil(math.Exp(7 + 0.85*r.Norm()))
	}
	for _, v := range []struct {
		name   string
		sample []float64
	}{{"sketch-fold-100k", sample}, {"sketch-fold-100k-atoms", atoms}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			retained := 0
			for i := 0; i < b.N; i++ {
				sk, err := lasvegas.NewSketch(0)
				if err != nil {
					b.Fatal(err)
				}
				if err := sk.AddAll(v.sample); err != nil {
					b.Fatal(err)
				}
				if sk.Quantile(0.5) <= 0 {
					b.Fatal("bad quantile")
				}
				retained = sk.Retained()
			}
			b.ReportMetric(float64(retained), "retained-vals/op")
		})
	}
	b.Run("empirical-materialize-100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := dist.NewEmpirical(sample)
			if err != nil {
				b.Fatal(err)
			}
			if e.Quantile(0.5) <= 0 {
				b.Fatal("bad quantile")
			}
		}
		b.ReportMetric(float64(runs), "retained-vals/op")
	})
}

// BenchmarkAblationNDJSONIngest reads one 20k-record NDJSON campaign
// stream into a sketch-backed campaign. canonical is the stream as
// WriteNDJSON writes it, so every record takes ReadCampaignNDJSON's
// reflection-free line parser; decoder writes each record as
// {"iterations": N}, a shape off that fast path, so every record goes
// through encoding/json as the reader did before the fast path
// existed. The ablation ratio is decoder over canonical.
// canonical-seconds is canonical with per-run seconds, as WriteNDJSON
// writes a campaign that has them: the fast path checks each seconds
// number against the JSON grammar without converting it.
func BenchmarkAblationNDJSONIngest(b *testing.B) {
	const runs = 20_000
	c := &lasvegas.Campaign{Problem: "ndjson-bench", Runs: runs, Iterations: make([]float64, runs)}
	for i := range c.Iterations {
		c.Iterations[i] = float64(1 + (i*7919)%999983)
	}
	stream := func(c *lasvegas.Campaign) []byte {
		var buf bytes.Buffer
		if err := c.WriteNDJSON(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	canonical := stream(c)
	spaced := bytes.ReplaceAll(canonical, []byte(`{"iterations":`), []byte(`{"iterations": `))
	c.Seconds = make([]float64, runs)
	for i, x := range c.Iterations {
		c.Seconds[i] = x * 1.37e-6
	}
	for _, v := range []struct {
		name   string
		stream []byte
	}{{"canonical", canonical}, {"decoder", spaced}, {"canonical-seconds", stream(c)}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := lasvegas.ReadCampaignNDJSON(bytes.NewReader(v.stream), 0)
				if err != nil {
					b.Fatal(err)
				}
				if got.Runs != runs {
					b.Fatalf("read %d runs, want %d", got.Runs, runs)
				}
			}
		})
	}
}

// BenchmarkSketchCodec measures the canonical JSON of a 20k-run
// sketch-backed campaign: encode is the campaign as the NDJSON reader
// leaves it (level 0 in arrival order), the bytes an upload stores
// and replicates; decode reads those bytes back, as a replica does.
func BenchmarkSketchCodec(b *testing.B) {
	c := lognormalStream(b, 20_000)
	data, err := c.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "bytes/op")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got lasvegas.Campaign
			if err := got.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPolicyTable measures one cold restart-policy table: four
// closed-form prices, a seeded replay per policy, and a bootstrap CI
// per policy — the work GET /v1/policy does once per campaign before
// its bytes cache. costas13 is the committed 200-run Costas campaign;
// sketch-200 and sketch-20k are lognormal NDJSON streams read into
// sketch-backed campaigns, exact below the sketch capacity and
// compacted above it.
func BenchmarkPolicyTable(b *testing.B) {
	costas, err := lasvegas.LoadCampaign("testdata/campaign_costas13.json")
	if err != nil {
		b.Fatal(err)
	}
	pred := lasvegas.New(lasvegas.WithAlpha(0.05), lasvegas.WithCensoredFit(true))
	for _, v := range []struct {
		name string
		c    *lasvegas.Campaign
	}{
		{"costas13", costas},
		{"sketch-200", lognormalStream(b, 200)},
		{"sketch-20k", lognormalStream(b, 20_000)},
	} {
		b.Run(v.name, func(b *testing.B) {
			best, err := pred.Fit(v.c)
			if errors.Is(err, lasvegas.ErrNoAcceptableFit) {
				best, err = pred.PlugIn(v.c)
			}
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				table, err := pred.PolicyTable(ctx, v.c, best)
				if err != nil {
					b.Fatal(err)
				}
				if table.Winner == "" {
					b.Fatal("empty winner")
				}
			}
		})
	}
}

// BenchmarkFitSketch measures FitAll on a 20k-run lognormal NDJSON
// stream: the default families, their KS and Anderson–Darling
// verdicts, all on the sketch's 4096-point pseudo-sample — the fit an
// lvserve replica computes for every streamed campaign.
func BenchmarkFitSketch(b *testing.B) {
	c := lognormalStream(b, 20_000)
	pred := lasvegas.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := pred.FitAll(c)
		if err != nil {
			b.Fatal(err)
		}
		if cands[0].Err != nil {
			b.Fatal(cands[0].Err)
		}
	}
}

// lognormalStream renders a fixed-seed campaign of integer iteration
// counts ⌈LogNormal(7, 0.85)⌉ as NDJSON and reads it back through
// ReadCampaignNDJSON, so it arrives sketch-backed as a streamed
// campaign does.
func lognormalStream(b testing.TB, runs int) *lasvegas.Campaign {
	b.Helper()
	law, err := dist.NewLogNormal(0, 7, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	c := &lasvegas.Campaign{Problem: "lognormal-stream", Runs: runs, Iterations: dist.SampleN(law, xrand.New(uint64(runs)), runs)}
	for i, x := range c.Iterations {
		c.Iterations[i] = math.Ceil(x)
	}
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		b.Fatal(err)
	}
	got, err := lasvegas.ReadCampaignNDJSON(&buf, 0)
	if err != nil {
		b.Fatal(err)
	}
	if !got.HasSketch() {
		b.Fatal("stream did not arrive sketch-backed")
	}
	return got
}

// benchSeeds is how many fixed seeds the solver benchmarks cycle
// through: solve i uses seed i % benchSeeds, so ns/op averages one
// fixed set of solves (evenly when b.N is a multiple of it) instead of
// drifting onto new seeds as b.N grows.
const benchSeeds = 16

// BenchmarkAdaptiveSolve measures one sequential solve per paper
// benchmark at the scaled default sizes — the unit of work behind
// every live campaign.
func BenchmarkAdaptiveSolve(b *testing.B) {
	for _, kind := range []problems.Kind{problems.AllInterval, problems.MagicSquare, problems.Costas, problems.Queens} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			size := problems.DefaultSize(kind)
			for i := 0; i < b.N; i++ {
				p, err := problems.New(kind, size)
				if err != nil {
					b.Fatal(err)
				}
				s, err := adaptive.New(p, adaptive.Params{})
				if err != nil {
					b.Fatal(err)
				}
				if res := s.Run(xrand.New(uint64(i % benchSeeds))); !res.Solved {
					b.Fatal("unsolved")
				}
			}
		})
	}
}
