// Package runtimes runs sequential campaigns of a Las Vegas solver
// and manages the resulting runtime samples: the paper's §5.4 step of
// collecting ~650 sequential runs per benchmark, from which Tables
// 1–2 are summarized and §6's distributions are fitted.
//
// Campaign repetitions are independent (fresh problem instance, fresh
// random stream per run), so they may be collected on parallel
// workers without biasing the iteration counts; only wall-clock
// seconds are scheduling-sensitive, which is one more reason the
// paper prefers iterations as the runtime measure.
package runtimes

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lasvegas/internal/adaptive"
	"lasvegas/internal/csp"
	"lasvegas/internal/fanout"
	"lasvegas/internal/stats"
	"lasvegas/internal/xrand"
)

// Campaign is the outcome of m sequential runs of one solver on one
// problem instance.
type Campaign struct {
	Problem    string
	Runs       int
	Seed       uint64
	Iterations []float64 // per-run iteration counts
	Seconds    []float64 // per-run wall-clock seconds
}

// Collect runs the Adaptive Search solver `runs` times on fresh
// instances from factory, each with an independent stream derived
// from seed, spreading the runs over `workers` goroutines
// (0 = GOMAXPROCS). It fails fast on a solver error or context
// cancellation, reporting the lowest failed run.
func Collect(ctx context.Context, factory func() (csp.Problem, error), params adaptive.Params, runs int, seed uint64, workers int) (*Campaign, error) {
	if factory == nil {
		return nil, errors.New("runtimes: nil factory")
	}
	if runs < 1 {
		return nil, fmt.Errorf("runtimes: %d runs", runs)
	}
	probe, err := factory()
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		Problem:    probe.Name(),
		Runs:       runs,
		Seed:       seed,
		Iterations: make([]float64, runs),
		Seconds:    make([]float64, runs),
	}
	root := xrand.New(seed)
	streams := make([]*xrand.Rand, runs)
	for i := range streams {
		streams[i] = root.Split(uint64(i))
	}
	err = fanout.Run(workers, runs, func(i int) error {
		p, err := factory()
		if err != nil {
			return err
		}
		s, err := adaptive.New(p, params)
		if err != nil {
			return err
		}
		start := time.Now()
		res := s.RunContext(ctx, streams[i])
		if !res.Solved {
			if res.Err != nil {
				return fmt.Errorf("runtimes: run %d: %w", i, res.Err)
			}
			return fmt.Errorf("runtimes: run %d unsolved", i)
		}
		c.Iterations[i] = float64(res.Stats.Iterations)
		c.Seconds[i] = time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// SummaryRow is one line of the paper's Tables 1–2.
type SummaryRow struct {
	Problem string
	Min     float64
	Mean    float64
	Median  float64
	Max     float64
}

// IterationSummary returns the Table-2 row of the campaign.
func (c *Campaign) IterationSummary() SummaryRow {
	s := stats.Summarize(c.Iterations)
	return SummaryRow{Problem: c.Problem, Min: s.Min, Mean: s.Mean, Median: s.Median, Max: s.Max}
}

// TimeSummary returns the Table-1 row of the campaign.
func (c *Campaign) TimeSummary() SummaryRow {
	s := stats.Summarize(c.Seconds)
	return SummaryRow{Problem: c.Problem, Min: s.Min, Mean: s.Mean, Median: s.Median, Max: s.Max}
}
