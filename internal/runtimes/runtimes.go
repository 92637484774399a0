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
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
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
	Problem    string    `json:"problem"`
	Runs       int       `json:"runs"`
	Seed       uint64    `json:"seed"`
	Iterations []float64 `json:"iterations"` // per-run iteration counts
	Seconds    []float64 `json:"seconds"`    // per-run wall-clock seconds
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

// WriteCSV emits one row per run: index, iterations, seconds.
func (c *Campaign) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"run", "iterations", "seconds"}); err != nil {
		return err
	}
	for i := range c.Iterations {
		rec := []string{
			strconv.Itoa(i),
			strconv.FormatFloat(c.Iterations[i], 'g', -1, 64),
			strconv.FormatFloat(c.Seconds[i], 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the WriteCSV format; Problem/Seed metadata are not
// stored in CSV and stay zero.
func ReadCSV(r io.Reader) (*Campaign, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) < 2 {
		return nil, errors.New("runtimes: CSV has no data rows")
	}
	c := &Campaign{Runs: len(records) - 1}
	for _, rec := range records[1:] {
		if len(rec) != 3 {
			return nil, fmt.Errorf("runtimes: bad CSV row %v", rec)
		}
		it, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("runtimes: bad iterations %q", rec[1])
		}
		sec, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("runtimes: bad seconds %q", rec[2])
		}
		c.Iterations = append(c.Iterations, it)
		c.Seconds = append(c.Seconds, sec)
	}
	return c, nil
}

// SaveJSON writes the full campaign (with metadata) to path.
func (c *Campaign) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadJSON reads a campaign written by SaveJSON.
func LoadJSON(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	if len(c.Iterations) == 0 {
		return nil, errors.New("runtimes: campaign has no observations")
	}
	return &c, nil
}
