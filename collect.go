package lasvegas

import (
	"context"
	"fmt"
	"time"

	"lasvegas/internal/fanout"
	"lasvegas/internal/multiwalk"
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
	if size <= 0 {
		size = prob.DefaultSize()
	}
	budget := max(p.cfg.budget, 0)
	run, name, err := problemRunner(prob, size, p.cfg.seed, budget)
	if err != nil {
		return nil, err
	}
	if t, i := p.cfg.shardTotal, p.cfg.shardIndex; t <= 0 || i < 0 || i >= t {
		return nil, fmt.Errorf("lasvegas: shard %d/%d out of range (want 0 ≤ index < total)", i, t)
	}
	c, err := p.collectRuns(ctx, run, name, size, budget)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: collect %s: %w", name, err)
	}
	return c, nil
}

// sharded reports whether Collect is restricted to a WithShard block.
func (p *Predictor) sharded() bool { return p.cfg.shardTotal > 1 }

// shardBounds returns the half-open global run-index range
// [lo, hi) of the configured shard.
func (p *Predictor) shardBounds() (lo, hi int) {
	runs, i, t := p.cfg.runs, p.cfg.shardIndex, p.cfg.shardTotal
	return runs * i / t, runs * (i + 1) / t
}

// collectRuns is the campaign engine behind every Collect: it calls
// run once per run on a bounded worker pool, with per-run streams
// split from the root seed at the run's global index, so neither
// scheduling nor sharding ever changes results. With a WithShard
// restriction only the shard's block of the full campaign is
// executed. A solved run records its iterations; an unsolved one is
// censored when it spent the whole budget (both solvers stop exactly
// there) and fails the campaign otherwise, with the context's error
// when collection was cancelled. It fails fast, reporting the lowest
// failed run.
func (p *Predictor) collectRuns(ctx context.Context, run multiwalk.Runner, name string, size int, budget int64) (*Campaign, error) {
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
		Budget:     budget,
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
		res := run(ctx, streams[i])
		switch {
		case res.Solved:
		case ctx.Err() != nil:
			return context.Cause(ctx)
		case budget > 0 && res.Iterations >= budget:
			censored[i] = true
		default:
			return fmt.Errorf("run %d stopped without a solution after %d iterations", i, res.Iterations)
		}
		c.Iterations[i] = float64(res.Iterations)
		c.Seconds[i] = time.Since(start).Seconds()
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
