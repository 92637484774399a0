package lasvegas

import (
	"fmt"

	"lasvegas/internal/sketch"
)

// Sketch is a mergeable quantile sketch — the O(k·log(n/k))-memory
// representation of a runtime sample that lets campaigns of millions
// of runs stream through lvserve without ever materializing the
// sample. It is an alias of the internal/sketch implementation (a
// deterministic KLL-style compactor hierarchy; see that package's
// documentation for the algorithm choice and the rank-error bound).
// Its queries run on the same step-law code as the empirical plug-in
// law, with each retained item weighted by the observations it stands
// for: CDF/PDF/Quantile/Mean/Var/Sample/Support are bit-identical to
// the empirical distribution of the folded stream while the sketch is
// Exact (n ≤ k) and within ErrorBound after, and MinExpectation keeps
// the exact one-pass plug-in prediction form, so a sketch-backed Model
// predicts speed-ups with no quadrature.
//
// Sketches of equal capacity merge associatively (up to the
// documented bound) and commute byte-exactly, which is what lets
// `lvseq -shard i/n -format ndjson` streams be folded per shard and
// pooled with Campaign.Merge.
type Sketch = sketch.Sketch

// DefaultSketchK is the default sketch capacity (rank error ≈
// log2(n/k)/k, ≈ 1% at a billion runs).
const DefaultSketchK = sketch.DefaultK

// NewSketch returns an empty quantile sketch with compactor capacity
// k (k ≤ 0 means DefaultSketchK; k must otherwise be an even number
// ≥ 8). Fold observations with Add/AddAll, attach it to a
// Campaign.Sketch, or pool shards with MergeSketches.
func NewSketch(k int) (*Sketch, error) {
	s, err := sketch.New(k)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	return s, nil
}

// MergeSketches pools two sketches of equal capacity into a new one
// covering both streams (see Sketch).
func MergeSketches(a, b *Sketch) (*Sketch, error) {
	m, err := sketch.Merge(a, b)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	return m, nil
}

// HasSketch reports whether the campaign carries a (non-empty)
// sketch-backed representation.
func (c *Campaign) HasSketch() bool {
	return c != nil && c.Sketch != nil && c.Sketch.N() > 0
}

// TotalRuns returns the number of observations the campaign covers:
// the raw Iterations plus the runs folded into its sketch.
func (c *Campaign) TotalRuns() int {
	if c == nil {
		return 0
	}
	total := len(c.Iterations)
	if c.Sketch != nil {
		total += int(c.Sketch.N())
	}
	return total
}

// RuntimeSketch returns a sketch covering every run of the campaign:
// the stored sketch with any raw Iterations folded in (a fresh sketch
// of capacity k — DefaultSketchK when k ≤ 0 — for raw-only
// campaigns). Censored campaigns fail with ErrCensored: a sketch
// stores values, not censoring flags, so folding budget-capped runs
// would silently bias every quantile toward optimism.
func (c *Campaign) RuntimeSketch(k int) (*Sketch, error) {
	if c == nil || c.TotalRuns() == 0 {
		return nil, ErrEmptyCampaign
	}
	if c.IsCensored() {
		return nil, fmt.Errorf("%w: %d of %d runs hit the %d-iteration budget — sketches carry complete runs only",
			ErrCensored, len(c.Censored), len(c.Iterations), c.Budget)
	}
	var s *Sketch
	if c.Sketch != nil {
		s = c.Sketch.Clone()
	} else {
		var err error
		if s, err = NewSketch(k); err != nil {
			return nil, err
		}
	}
	if err := s.AddAll(c.Iterations); err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	return s, nil
}

// Sketchify returns a sketch-backed copy of the campaign: every run
// folded into one sketch of capacity k (DefaultSketchK when k ≤ 0),
// raw Iterations and Seconds dropped, in O(k·log(n/k)) memory however
// many runs the campaign has. While the sketch stays Exact the copy
// fits and predicts like the original. Past that, ErrorBound bounds
// the rank error |F̂ − F| of the copy's law, not its predictions: a
// large-n E[Z(n)] reads the lowest ~1/n of the law, where the error
// can be much larger (−9.8% on E[Z(256)] for a 20k-run lognormal at
// an ErrorBound of 0.0043). Censored campaigns fail with ErrCensored.
func (c *Campaign) Sketchify(k int) (*Campaign, error) {
	s, err := c.RuntimeSketch(k)
	if err != nil {
		return nil, err
	}
	out := &Campaign{
		Problem: c.Problem,
		Size:    c.Size,
		Runs:    c.TotalRuns(),
		Seed:    c.Seed,
		Sketch:  s,
	}
	if len(c.Metadata) > 0 {
		out.Metadata = make(map[string]string, len(c.Metadata))
		for k, v := range c.Metadata {
			out.Metadata[k] = v
		}
	}
	return out, nil
}
