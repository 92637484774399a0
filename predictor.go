package lasvegas

// Predictor is the entry point of the pipeline: it collects sequential
// campaigns, fits candidate runtime-distribution families, and turns
// the accepted fit into a speed-up Model — the paper's collect → fit →
// predict loop behind one configurable surface.
//
// A zero-configuration Predictor (lasvegas.New()) reproduces the
// paper's defaults: the exponential / shifted-exponential / lognormal
// candidate set, KS significance α = 0.05, 200-run campaigns, and
// unbounded (uncensored) runs. A Predictor is immutable after New and
// safe for concurrent use.
type Predictor struct {
	cfg config
}

type config struct {
	families    []Family
	alpha       float64
	runs        int
	seed        uint64
	workers     int
	budget      int64
	simReps     int
	resamples   int
	level       float64
	shardIndex  int
	shardTotal  int
	censoredFit bool
	famSet      bool // families explicitly chosen via WithFamilies
}

// Option configures a Predictor.
type Option func(*config)

// WithFamilies sets the candidate distribution families Fit and
// FitAll consider, in preference order for ties. Default:
// DefaultFamilies (the paper's accepted trio).
func WithFamilies(fams ...Family) Option {
	return func(c *config) {
		c.families = append([]Family(nil), fams...)
		c.famSet = len(fams) > 0
	}
}

// WithAlpha sets the KS significance level used to accept or reject a
// fitted family (default 0.05, the paper's level).
func WithAlpha(alpha float64) Option {
	return func(c *config) { c.alpha = alpha }
}

// WithRuns sets the number of sequential runs Collect performs
// (default 200; the paper used ~650).
func WithRuns(runs int) Option {
	return func(c *config) { c.runs = runs }
}

// WithSeed sets the root seed all campaign and bootstrap random
// streams derive from (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithWorkers bounds the goroutines one call spreads its independent
// work over: Collect's runs, FitAll's candidate families (raw and
// sketch-backed campaigns) and PolicyTable's per-row replays and
// bootstraps (default 0 = GOMAXPROCS; 1 runs every call serially on
// the caller's goroutine). Results do not depend on it: each task
// draws from its own seeded stream and writes its own slot.
func WithWorkers(workers int) Option {
	return func(c *config) { c.workers = workers }
}

// WithBudget caps each collected run at maxIterations; runs that
// exhaust the budget are recorded as censored instead of failing the
// campaign. 0 (the default) is the unbounded Las Vegas setting.
func WithBudget(maxIterations int64) Option {
	return func(c *config) { c.budget = maxIterations }
}

// WithShard restricts Collect to shard `index` of `total`: the
// contiguous block [runs·index/total, runs·(index+1)/total) of the
// full campaign's run indices, with per-run random streams still
// split from the root seed at the *global* index. Collecting every
// shard (on as many machines as you like) and pooling them with
// Campaign.Merge therefore reproduces the unsharded campaign's
// iteration counts exactly. WithShard(0, 1) — the default — collects
// everything. Collect rejects index/total with total ≤ 0 or
// index outside [0, total).
func WithShard(index, total int) Option {
	return func(c *config) { c.shardIndex, c.shardTotal = index, total }
}

// WithCensoredFit routes censored campaigns — the cheap, budgeted
// kind WithBudget and `lvseq -maxiter` produce — through the
// internal/survival estimators instead of rejecting them with
// ErrCensored: Fit and FitAll switch to censored maximum likelihood
// (ranked by censored log-likelihood, with KS and Anderson–Darling
// verdicts restricted to the uncensored region) over CensoredFamilies
// — or, when WithFamilies was used, over the censored-capable subset
// of that explicit choice, with the rest reported as failed
// candidates — and PlugIn returns the Kaplan–Meier product-limit law
// (bit-identical to the empirical plug-in on censoring-free
// campaigns). Campaigns
// whose runs are *all* censored still fail with ErrCensored — there
// is no uncensored observation to anchor any estimate. Default off,
// preserving the strict complete-sample behaviour.
func WithCensoredFit(enabled bool) Option {
	return func(c *config) { c.censoredFit = enabled }
}

// WithSimReps sets the repetitions per core count used by
// SimulateSpeedups when called through the Predictor (default 3000).
func WithSimReps(reps int) Option {
	return func(c *config) { c.simReps = reps }
}

// WithBootstrap configures BootstrapCI: the number of resamples and
// the two-sided confidence level (defaults 200 and 0.95).
func WithBootstrap(resamples int, level float64) Option {
	return func(c *config) { c.resamples, c.level = resamples, level }
}

// New returns a Predictor with the given options applied over the
// paper defaults.
func New(opts ...Option) *Predictor {
	cfg := config{
		alpha:      0.05,
		runs:       200,
		seed:       1,
		simReps:    3000,
		resamples:  200,
		level:      0.95,
		shardTotal: 1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.families) == 0 {
		cfg.families = DefaultFamilies()
	}
	return &Predictor{cfg: cfg}
}
