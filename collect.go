package lasvegas

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lasvegas/internal/adaptive"
	"lasvegas/internal/csp"
	"lasvegas/internal/fanout"
	"lasvegas/internal/problems"
	"lasvegas/internal/runtimes"
	"lasvegas/internal/sat"
	"lasvegas/internal/xrand"
)

// Collect runs a sequential campaign of the problem's Las Vegas
// solver — Adaptive Search for the CSP families, WalkSAT for SAT3 —
// with the Predictor's runs/seed/workers/budget configuration. Runs
// use independent random streams split from the seed, so campaigns
// are deterministic for a given configuration regardless of worker
// scheduling. size 0 selects the problem's DefaultSize. ctx cancels
// collection promptly (runs poll it).
//
// With a WithBudget cap, runs that exhaust the budget are recorded as
// censored (Campaign.Censored) rather than failing the campaign —
// the standard censoring treatment for bounded Las Vegas measurements
// (Hoos & Stützle's evaluation methodology).
func (p *Predictor) Collect(ctx context.Context, prob Problem, size int) (*Campaign, error) {
	if !prob.Known() {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownProblem, prob, Problems())
	}
	if t, i := p.cfg.shardTotal, p.cfg.shardIndex; t <= 0 || i < 0 || i >= t {
		return nil, fmt.Errorf("lasvegas: shard %d/%d out of range (want 0 ≤ index < total)", i, t)
	}
	if size <= 0 {
		size = prob.DefaultSize()
	}
	if prob == SAT3 {
		return p.collectSAT(ctx, size)
	}
	return p.collectCSP(ctx, prob, size)
}

// sharded reports whether Collect is restricted to a WithShard block.
func (p *Predictor) sharded() bool { return p.cfg.shardTotal > 1 }

// shardBounds returns the half-open global run-index range
// [lo, hi) of the configured shard.
func (p *Predictor) shardBounds() (lo, hi int) {
	runs, i, t := p.cfg.runs, p.cfg.shardIndex, p.cfg.shardTotal
	return runs * i / t, runs * (i + 1) / t
}

// collectCSP runs Adaptive Search campaigns. The uncensored unsharded
// path delegates to the internal collector so the random streams — and
// therefore every published fixed-seed result — stay bit-identical to
// earlier releases; sharded collection routes through collectRuns,
// whose streams split from the root seed at the same global indices,
// so merged shards still reproduce those results.
func (p *Predictor) collectCSP(ctx context.Context, prob Problem, size int) (*Campaign, error) {
	kind := problems.Kind(prob)
	factory := func() (csp.Problem, error) { return problems.New(kind, size) }
	if _, err := factory(); err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	if p.cfg.budget <= 0 && !p.sharded() {
		c, err := runtimes.Collect(ctx, factory, adaptive.Params{}, p.cfg.runs, p.cfg.seed, p.cfg.workers)
		if err != nil {
			return nil, fmt.Errorf("lasvegas: collect %s-%d: %w", prob, size, err)
		}
		return &Campaign{
			Problem:    c.Problem,
			Size:       size,
			Runs:       c.Runs,
			Seed:       c.Seed,
			Iterations: c.Iterations,
			Seconds:    c.Seconds,
		}, nil
	}
	probe, err := factory()
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	budget := p.cfg.budget
	c, err := p.collectRuns(ctx, probe.Name(), size, func(ctx context.Context, r *xrand.Rand) (runOutcome, error) {
		prb, err := factory()
		if err != nil {
			return runOutcome{}, err
		}
		s, err := adaptive.New(prb, adaptive.Params{MaxIterations: budget})
		if err != nil {
			return runOutcome{}, err
		}
		res := s.RunContext(ctx, r)
		switch {
		case res.Solved:
			return runOutcome{iterations: float64(res.Stats.Iterations)}, nil
		case errors.Is(res.Err, adaptive.ErrInterrupted):
			return runOutcome{}, context.Cause(ctx)
		case budget > 0: // budget exhausted
			return runOutcome{iterations: float64(res.Stats.Iterations), censored: true}, nil
		default:
			if res.Err != nil {
				return runOutcome{}, res.Err
			}
			return runOutcome{}, errors.New("adaptive run stopped without a solution")
		}
	})
	if err != nil {
		return nil, fmt.Errorf("lasvegas: collect %s-%d: %w", prob, size, err)
	}
	return c, nil
}

// collectSAT runs WalkSAT campaigns on one planted random 3-SAT
// instance with `size` variables and ⌊4.2·size⌋ clauses. The formula
// is derived deterministically from the campaign seed; runs vary only
// the solver's random stream, matching the paper's "runtime
// distribution of an instance" setting.
func (p *Predictor) collectSAT(ctx context.Context, size int) (*Campaign, error) {
	clauses := int(satClauseRatio * float64(size))
	f, _, err := sat.RandomPlantedKSAT(size, clauses, 3, xrand.New(p.cfg.seed^0x5A73))
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	budget := p.cfg.budget
	name := fmt.Sprintf("sat-3-%d", size)
	c, err := p.collectRuns(ctx, name, size, func(ctx context.Context, r *xrand.Rand) (runOutcome, error) {
		s, err := sat.NewSolver(f, sat.Params{MaxFlips: budget})
		if err != nil {
			return runOutcome{}, err
		}
		res := s.RunContext(ctx, r)
		switch {
		case res.Solved:
			return runOutcome{iterations: float64(res.Flips)}, nil
		case errors.Is(res.Err, sat.ErrInterrupted):
			return runOutcome{}, context.Cause(ctx)
		case budget > 0:
			return runOutcome{iterations: float64(res.Flips), censored: true}, nil
		default:
			if res.Err != nil {
				return runOutcome{}, res.Err
			}
			return runOutcome{}, errors.New("walksat run stopped without a solution")
		}
	})
	if err != nil {
		return nil, fmt.Errorf("lasvegas: collect %s: %w", name, err)
	}
	return c, nil
}

// runOutcome is the result of one collected run.
type runOutcome struct {
	iterations float64
	censored   bool
}

// collectRuns is the generic campaign engine: runs independent
// repetitions on a bounded worker pool, with per-run streams split
// from the root seed at the run's global index (the same derivation
// as the internal collector, so neither scheduling nor sharding ever
// changes results). With a WithShard restriction only the shard's
// block of the full campaign is executed. It fails fast on a run
// error or context cancellation, reporting the lowest failed run.
func (p *Predictor) collectRuns(ctx context.Context, name string, size int,
	runOne func(context.Context, *xrand.Rand) (runOutcome, error)) (*Campaign, error) {
	total := p.cfg.runs
	if total < 1 {
		return nil, fmt.Errorf("%d runs", total)
	}
	lo, hi := p.shardBounds()
	runs := hi - lo
	if runs < 1 {
		return nil, fmt.Errorf("shard %d/%d of %d runs is empty",
			p.cfg.shardIndex, p.cfg.shardTotal, total)
	}
	c := &Campaign{
		Problem:    name,
		Size:       size,
		Runs:       runs,
		Seed:       p.cfg.seed,
		Budget:     p.cfg.budget,
		Iterations: make([]float64, runs),
		Seconds:    make([]float64, runs),
	}
	if p.sharded() {
		c.Metadata = map[string]string{
			"lasvegas.shard":      fmt.Sprintf("%d/%d", p.cfg.shardIndex, p.cfg.shardTotal),
			"lasvegas.shard.runs": fmt.Sprintf("%d", total),
		}
	}
	root := xrand.New(p.cfg.seed)
	streams := make([]*xrand.Rand, runs)
	for i := range streams {
		streams[i] = root.Split(uint64(lo + i))
	}
	censored := make([]bool, runs)

	err := fanout.Run(p.cfg.workers, runs, func(i int) error {
		start := time.Now()
		out, err := runOne(ctx, streams[i])
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		c.Iterations[i] = out.iterations
		c.Seconds[i] = time.Since(start).Seconds()
		censored[i] = out.censored
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cens := range censored {
		if cens {
			c.Censored = append(c.Censored, i)
		}
	}
	return c, nil
}
