package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lasvegas"
	"lasvegas/internal/fanout"
	"lasvegas/internal/paperdata"
	"lasvegas/internal/problems"
)

// Config tunes the experiment harness. Zero values fall back to the
// defaults documented on each field.
type Config struct {
	// Paper switches to replaying the published evaluation numbers
	// instead of running live campaigns.
	Paper bool
	// Runs is the number of sequential runs per live campaign
	// (default 200; the paper used ~650).
	Runs int
	// SimReps is the number of resampled multi-walk repetitions per
	// core count (default 3000).
	SimReps int
	// Cores is the measured core grid (default the paper's
	// {16,32,64,128,256}).
	Cores []int
	// Seed makes the whole harness deterministic (default 1).
	Seed uint64
	// Workers bounds each worker pool of the harness independently:
	// the goroutines of one live campaign or fit and the number of
	// artifacts RunAll regenerates concurrently (default GOMAXPROCS; 1
	// forces fully serial execution). The two levels nest, so up
	// to Workers² goroutines can be runnable at once; GOMAXPROCS still
	// caps the threads actually running, the nesting only adds
	// scheduler pressure.
	Workers int
	// Sizes overrides the per-problem instance sizes (defaults from
	// Problem.DefaultSize; the paper's sizes via Problem.PaperSize
	// make live campaigns take hours, exactly as in the paper).
	Sizes map[lasvegas.Problem]int
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 200
	}
	if c.SimReps <= 0 {
		c.SimReps = 3000
	}
	if len(c.Cores) == 0 {
		c.Cores = append([]int(nil), paperdata.Cores...)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sizes == nil {
		c.Sizes = map[lasvegas.Problem]int{}
	}
	for _, kind := range paperKinds {
		if c.Sizes[kind] <= 0 {
			c.Sizes[kind] = kind.DefaultSize()
		}
	}
	return c
}

// paperKinds are the three benchmarks of the evaluation, in the
// paper's table order.
var paperKinds = []lasvegas.Problem{lasvegas.MagicSquare, lasvegas.AllInterval, lasvegas.Costas}

// Lab caches live campaigns and fits across experiments so that
// "run everything" collects each benchmark's runtimes exactly once.
// Campaign collection and model selection go through the public
// lasvegas API — the Lab is both the paper harness and the standing
// integration test of that surface. All methods are safe for
// concurrent use: memoization uses per-kind once-cells, so concurrent
// artifact generators needing the same campaign block on a single
// collection instead of duplicating it.
type Lab struct {
	cfg Config

	mu        sync.Mutex // guards the two maps (not the cells' contents)
	campaigns map[lasvegas.Problem]*campaignCell
	fits      map[lasvegas.Problem]*fitCell
}

// campaignCell memoizes one benchmark's live campaign. Only success
// is cached: a failed collection (e.g. a cancelled context) leaves
// the cell empty so a later call can retry. The cell mutex also
// serializes concurrent callers, so one collection is shared.
type campaignCell struct {
	mu sync.Mutex
	c  *lasvegas.Campaign
}

// fitCell memoizes one benchmark's model selection (success only,
// like campaignCell).
type fitCell struct {
	mu sync.Mutex
	m  *lasvegas.Model
}

// NewLab returns a Lab with the given configuration.
func NewLab(cfg Config) *Lab {
	return &Lab{
		cfg:       cfg.withDefaults(),
		campaigns: map[lasvegas.Problem]*campaignCell{},
		fits:      map[lasvegas.Problem]*fitCell{},
	}
}

// Config returns the effective configuration.
func (l *Lab) Config() Config { return l.cfg }

// label returns the display name of a benchmark in the current mode.
func (l *Lab) label(kind lasvegas.Problem) string {
	if l.cfg.Paper {
		if s, ok := paperdata.PaperLabel(problems.Kind(kind)); ok {
			return s
		}
	}
	return fmt.Sprintf("%s %d", shortName(kind), l.cfg.Sizes[kind])
}

func shortName(kind lasvegas.Problem) string {
	switch kind {
	case lasvegas.AllInterval:
		return "AI"
	case lasvegas.MagicSquare:
		return "MS"
	case lasvegas.Costas:
		return "Costas"
	case lasvegas.Queens:
		return "Queens"
	case lasvegas.SAT3:
		return "SAT3"
	}
	return string(kind)
}

// predictor builds the public-API predictor of one benchmark, with
// the per-kind seed offset that keeps campaigns independent.
func (l *Lab) predictor(kind lasvegas.Problem) *lasvegas.Predictor {
	return lasvegas.New(
		lasvegas.WithRuns(l.cfg.Runs),
		lasvegas.WithSeed(l.cfg.Seed^hashKind(kind)),
		lasvegas.WithWorkers(l.cfg.Workers),
	)
}

// Campaign returns the (cached) live sequential campaign for kind.
// Concurrent callers share one collection.
func (l *Lab) Campaign(ctx context.Context, kind lasvegas.Problem) (*lasvegas.Campaign, error) {
	l.mu.Lock()
	cell, ok := l.campaigns[kind]
	if !ok {
		cell = &campaignCell{}
		l.campaigns[kind] = cell
	}
	l.mu.Unlock()
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if cell.c != nil {
		return cell.c, nil
	}
	size := l.cfg.Sizes[kind]
	c, err := l.predictor(kind).Collect(ctx, kind, size)
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign %s-%d: %w", kind, size, err)
	}
	cell.c = c
	return c, nil
}

// BestFit runs the paper's §6 model-selection loop on the live
// campaign of kind through the public API: candidate families
// exponential, shifted exponential and lognormal, ranked by KS
// p-value, best non-rejected fit wins.
func (l *Lab) BestFit(ctx context.Context, kind lasvegas.Problem) (*lasvegas.Model, error) {
	l.mu.Lock()
	cell, ok := l.fits[kind]
	if !ok {
		cell = &fitCell{}
		l.fits[kind] = cell
	}
	l.mu.Unlock()
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if cell.m != nil {
		return cell.m, nil
	}
	c, err := l.Campaign(ctx, kind)
	if err != nil {
		return nil, err
	}
	cands, err := l.predictor(kind).FitAll(c)
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting %s: %w", kind, err)
	}
	for _, cand := range cands {
		// Highest KS p-value first; like the paper, report the best
		// candidate even when the verdict is a rejection.
		if cand.Model != nil {
			cell.m = cand.Model
			return cand.Model, nil
		}
	}
	return nil, fmt.Errorf("experiments: no family fitted %s", kind)
}

// hashKind gives each benchmark an independent seed offset.
func hashKind(kind lasvegas.Problem) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range []byte(kind) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// generator builds one artifact.
type generator struct {
	title string
	run   func(*Lab, context.Context) (*Artifact, error)
}

// Run regenerates the experiment with the paper identifier id.
func (l *Lab) Run(ctx context.Context, id string) (*Artifact, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	a, err := g.run(l, ctx)
	if err != nil {
		return nil, err
	}
	a.ID = id
	if a.Title == "" {
		a.Title = g.title
	}
	return a, nil
}

// RunAll regenerates every table and figure, returned in paper order.
// Artifacts are generated concurrently on a worker pool bounded by
// Config.Workers (default GOMAXPROCS): every artifact derives its
// random streams from Config.Seed and its own identifier, so the
// output is bit-identical to a serial run regardless of scheduling.
// On failure the successfully generated artifacts are returned (in
// order, with failures dropped) together with the first error in
// paper order.
func (l *Lab) RunAll(ctx context.Context) ([]*Artifact, error) {
	ids := IDs()
	arts := make([]*Artifact, len(ids))
	errs := make([]error, len(ids))
	// Every artifact runs: a failure lands in errs, not in the pool.
	_ = fanout.Run(l.cfg.Workers, len(ids), func(i int) error {
		arts[i], errs[i] = l.Run(ctx, ids[i])
		return nil
	})

	out := make([]*Artifact, 0, len(ids))
	var firstErr error
	for i, a := range arts {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: %s: %w", ids[i], errs[i])
			}
			continue
		}
		out = append(out, a)
	}
	return out, firstErr
}

// IDs lists the known experiment identifiers in paper order, with
// extension experiments (ttt, bootstrap, ...) after the paper's own.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ki, kj := orderKey(ids[i]), orderKey(ids[j])
		if ki != kj {
			return ki < kj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// orderKey sorts table1..5 before fig1..fig14, numerically, with
// anything else (extensions) last.
func orderKey(id string) int {
	var n int
	switch {
	case strings.HasPrefix(id, "table"):
		fmt.Sscanf(id, "table%d", &n)
		return n
	case strings.HasPrefix(id, "fig"):
		fmt.Sscanf(id, "fig%d", &n)
		return 100 + n
	}
	return 1000
}
