package main

// collect-predict: the paper's whole pipeline through the library
// alone — collect a campaign of the solver, fit it, predict the
// speed-up curve over the paper's core grid. No server, store or peer
// code runs.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"lasvegas"
)

type problemSize struct {
	p    lasvegas.Problem
	size int
}

// pipeline is the collect-predict instance.
type pipeline struct {
	seed  uint64
	probs []problemSize
	runs  int
	grid  []int
	sums  sumBook
}

// sumBook holds the iteration sum of each op's campaign, shared by
// every set-up of one run.
type sumBook map[int]float64

// check records op i's iteration sum, or checks it against the sum
// an earlier run of the same op recorded.
func (b sumBook) check(i int, sum float64) error {
	if prev, ok := b[i]; ok && prev != sum {
		return fmt.Errorf("op %d: iteration sum %v, an earlier run of the same seed gave %v", i, sum, prev)
	}
	b[i] = sum
	return nil
}

// warmOps is how many fixed-seed ops a set-up runs: three rotations
// of the problems, about 0.9 s.
const warmOps = 9

// paperGrid is the core grid of the paper's speed-up tables.
var paperGrid = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// warmSeed seeds the warm-up ops, whatever the workload seed. A
// campaign's collection cost is a random variable of its seed (runs
// to a solution are heavy-tailed), so set-ups over seed-derived ops
// took 0.21-0.47 s from seed to seed, against a few percent between
// the set-ups of one run. On fixed seeds every run's set-up does the
// same work.
const warmSeed = 0x5eed

// setupPipeline runs warmOps fixed-seed ops and then op 0 of the
// workload seed, untimed. Every later set-up repeats them, and the
// measured pass starts again at op 0: each must reproduce its
// iteration sums.
func setupPipeline(e env) (instance, error) {
	w := &pipeline{
		seed: e.seed,
		probs: []problemSize{
			{lasvegas.AllInterval, e.size(14, 10)},
			{lasvegas.MagicSquare, e.size(5, 4)},
			{lasvegas.Costas, e.size(10, 8)},
		},
		runs: e.size(40, 20),
		grid: paperGrid,
		sums: e.sums,
	}
	for i := -e.size(warmOps, 3); i <= 0; i++ {
		if _, err := w.do(i, nil); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return w, nil
}

// do collects op i's campaign (the problems in rotation, each op on a
// seed of its own; warm-up ops, numbered below 0, on seeds drawn from
// warmSeed), fits it (the plug-in law when no family is accepted) and
// predicts the curve. It checks that a repeated op reproduces its
// iteration sum and that the curve is a speed-up.
func (w *pipeline) do(i int, tr *tracer) (time.Duration, error) {
	n := len(w.probs)
	p := w.probs[(i%n+n)%n]
	base := w.seed
	if i < 0 {
		base = warmSeed
	}
	seed := rng(base, 4).Uint64() ^ uint64(i)*0x9e3779b97f4a7c15
	pred := lasvegas.New(lasvegas.WithWorkers(2), lasvegas.WithRuns(w.runs), lasvegas.WithSeed(seed))
	trace := traceID(i)
	ctx := context.Background()
	t0 := time.Now()
	var c *lasvegas.Campaign
	err := tr.stage(trace, "solver.collect_ms", false, func() (err error) {
		c, err = pred.Collect(ctx, p.p, p.size)
		return err
	})
	var m *lasvegas.Model
	if err == nil {
		err = tr.stage(trace, "fit.ms", false, func() (err error) {
			m, err = pred.Fit(c)
			if errors.Is(err, lasvegas.ErrNoAcceptableFit) {
				m, err = pred.PlugIn(c)
			}
			return err
		})
	}
	var pts []lasvegas.SpeedupPoint
	if err == nil {
		err = tr.stage(trace, "orderstat.curve_ms", false, func() (err error) {
			pts, err = m.Curve(ctx, w.grid)
			return err
		})
	}
	lat := time.Since(t0)
	tr.op(trace, t0, t0.Add(lat))
	if err != nil {
		return lat, fmt.Errorf("%s-%d: %w", p.p, p.size, err)
	}
	sum := 0.0
	for _, x := range c.Iterations {
		sum += x
	}
	tr.count("solver.iters", sum)
	if err := w.sums.check(i, sum); err != nil {
		return lat, err
	}
	if len(pts) != len(w.grid) {
		return lat, fmt.Errorf("%s-%d: %d curve points, want %d", p.p, p.size, len(pts), len(w.grid))
	}
	for k, pt := range pts {
		if pt.Cores != w.grid[k] || !(pt.Speedup > 0) || math.IsInf(pt.Speedup, 0) {
			return lat, fmt.Errorf("%s-%d: curve point %+v", p.p, p.size, pt)
		}
	}
	return lat, nil
}

func (w *pipeline) counters() (map[string]float64, error) { return nil, nil }
func (w *pipeline) close() error                          { return nil }
