package lasvegas

import (
	"context"
	"errors"
	"fmt"

	"lasvegas/internal/core"
	"lasvegas/internal/dist"
	"lasvegas/internal/fanout"
	"lasvegas/internal/fit"
	"lasvegas/internal/ks"
	"lasvegas/internal/policy"
	"lasvegas/internal/survival"
)

// Family identifies a candidate runtime-distribution family.
type Family string

// Candidate families (§6 of the paper plus the extended set).
const (
	Exponential        Family = "exponential"
	ShiftedExponential Family = "shifted-exponential"
	LogNormal          Family = "lognormal"
	Normal             Family = "normal"
	Gamma              Family = "gamma"
	Weibull            Family = "weibull"
	Levy               Family = "levy"
	// Empirical is the nonparametric plug-in, produced by PlugIn
	// rather than fitted by Fit.
	Empirical Family = "empirical"
	// KaplanMeier is the nonparametric product-limit plug-in for
	// censored campaigns, produced by PlugIn under WithCensoredFit.
	KaplanMeier Family = "kaplan-meier"
	// QuantileSketch is the nonparametric plug-in for sketch-backed
	// campaigns: the mergeable quantile sketch itself as the runtime
	// law (exact MinExpectation pass, no quadrature), produced by
	// PlugIn when the campaign carries a sketch.
	QuantileSketch Family = "sketch"
)

// Estimator kinds recorded on a Model (see Model.Estimator).
const (
	// EstimatorComplete marks the paper's §6 complete-sample
	// estimators — the default for uncensored campaigns.
	EstimatorComplete = ""
	// EstimatorCensoredMLE marks a censored maximum-likelihood fit
	// (WithCensoredFit on a budgeted campaign).
	EstimatorCensoredMLE = "censored-mle"
	// EstimatorKaplanMeier marks the product-limit plug-in law.
	EstimatorKaplanMeier = "kaplan-meier"
	// EstimatorSketch marks a model estimated from a sketch-backed
	// campaign: parametric families are fitted against the sketch's
	// quantile pseudo-sample, and the plug-in law is the sketch
	// itself. Accurate within the sketch's documented rank-error
	// bound; exact while the sketch holds the full sample.
	EstimatorSketch = "quantile-sketch"
)

// DefaultFamilies returns the candidate set the paper accepts fits
// from: the two exponential variants and the lognormal.
func DefaultFamilies() []Family {
	return []Family{Exponential, ShiftedExponential, LogNormal}
}

// CensoredFamilies returns the families with censored
// maximum-likelihood estimators — the candidate set the
// WithCensoredFit path considers: the paper's accepted trio plus the
// min-stable Weibull.
func CensoredFamilies() []Family {
	return []Family{Exponential, ShiftedExponential, LogNormal, Weibull}
}

// AllFamilies returns every parametric family the fitter knows,
// including the gaussian and Lévy the paper reports rejecting.
func AllFamilies() []Family {
	return []Family{Exponential, ShiftedExponential, LogNormal, Normal, Gamma, Weibull, Levy}
}

// GoodnessOfFit is the verdict of a distributional test (KS or
// Anderson–Darling) on a fitted law.
type GoodnessOfFit struct {
	// Stat is the test statistic (sup|F̂−F| for KS, A² for AD).
	Stat float64
	// PValue is the asymptotic p-value.
	PValue float64
	// N is the sample size the test saw.
	N int
}

// RejectedAt reports whether the fit is rejected at significance
// level alpha.
func (g GoodnessOfFit) RejectedAt(alpha float64) bool { return g.PValue < alpha }

// Model is a fitted (or plug-in) sequential runtime law together with
// the paper's speed-up predictor on top of it: G(n) = E[Y]/E[Z(n)]
// with Z(n) the minimum of n i.i.d. copies of Y.
type Model struct {
	family    Family
	law       dist.Dist
	gof       GoodnessOfFit
	tested    bool
	alpha     float64
	pred      *core.Predictor
	censFrac  float64
	estimator string
}

func newModel(family Family, law dist.Dist, alpha float64) (*Model, error) {
	pred, err := core.NewPredictor(law)
	if err != nil {
		return nil, err
	}
	return &Model{family: family, law: law, alpha: alpha, pred: pred}, nil
}

// Family returns the distribution family of the fitted law.
func (m *Model) Family() Family { return m.family }

// CensoredFraction returns the fraction of campaign runs that were
// censored when this model was estimated (0 for complete campaigns).
func (m *Model) CensoredFraction() float64 { return m.censFrac }

// Estimator returns the estimator kind that produced the model:
// EstimatorComplete (the §6 complete-sample estimators),
// EstimatorCensoredMLE, or EstimatorKaplanMeier. Recorded — together
// with CensoredFraction — in the model's deterministic JSON so served
// predictions disclose what they were fitted from.
func (m *Model) Estimator() string { return m.estimator }

// String renders the fitted law with its parameters.
func (m *Model) String() string { return m.law.String() }

// GoodnessOfFit returns the KS verdict of the fit; ok is false for
// models without one (the empirical plug-in and extrapolated models).
func (m *Model) GoodnessOfFit() (g GoodnessOfFit, ok bool) { return m.gof, m.tested }

// Accepted reports whether the fit passed the KS test at the
// Predictor's significance level. Models without a KS verdict are
// accepted by construction.
func (m *Model) Accepted() bool { return !m.tested || !m.gof.RejectedAt(m.alpha) }

// Mean returns E[Y], the expected sequential runtime.
func (m *Model) Mean() float64 { return m.pred.SequentialMean() }

// CDF returns P(Y ≤ x) under the fitted law.
func (m *Model) CDF(x float64) float64 { return m.law.CDF(x) }

// PDF returns the fitted law's density at x.
func (m *Model) PDF(x float64) float64 { return m.law.PDF(x) }

// Quantile returns the p-quantile of the fitted sequential runtime.
func (m *Model) Quantile(p float64) float64 { return m.law.Quantile(p) }

// Speedup returns the predicted parallel speed-up G(n) on n cores.
func (m *Model) Speedup(n int) (float64, error) { return m.pred.Speedup(n) }

// MinExpectation returns E[Z(n)], the expected multi-walk parallel
// runtime on n cores.
func (m *Model) MinExpectation(n int) (float64, error) { return m.pred.ParallelMean(n) }

// Efficiency returns G(n)/n, the parallel efficiency at n cores.
func (m *Model) Efficiency(n int) (float64, error) { return m.pred.Efficiency(n) }

// Limit returns lim_{n→∞} G(n): E[Y]/x0 for a law with minimal
// runtime x0 > 0, +Inf otherwise (the linear-forever case).
func (m *Model) Limit() float64 { return m.pred.Limit() }

// TangentAtOrigin returns the initial slope of the speed-up curve
// (x0·λ + 1 for the shifted exponential).
func (m *Model) TangentAtOrigin() float64 { return m.pred.TangentAtOrigin() }

// Linear reports whether the prediction is exactly G(n) = n (the
// unshifted exponential case of §3.3).
func (m *Model) Linear() bool { return m.pred.Linear() }

// CoresForSpeedup returns the smallest n with G(n) ≥ target — the
// capacity-planning inverse of Speedup.
func (m *Model) CoresForSpeedup(target float64) (int, error) {
	return m.pred.CoresForSpeedup(target)
}

// Curve evaluates the predicted speed-up at each core count,
// honouring ctx between quadrature evaluations (lognormal curves at
// large n are the one genuinely slow prediction path). Each point
// costs one E[Z(n)] evaluation, and its Speedup and MeanZ equal
// Speedup(n) and MinExpectation(n) bit for bit.
func (m *Model) Curve(ctx context.Context, cores []int) ([]SpeedupPoint, error) {
	pts := make([]SpeedupPoint, len(cores))
	for i, n := range cores {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		z, err := m.pred.ParallelMean(n)
		if err != nil {
			return nil, fmt.Errorf("lasvegas: curve at n=%d: %w", n, err)
		}
		pts[i] = SpeedupPoint{Cores: n, Speedup: m.pred.SpeedupFor(z), MeanZ: z}
	}
	return pts, nil
}

// RestartPolicy is the verdict of the optimal fixed-cutoff restart
// analysis on the model's law: the fitted-optimal row of Policies.
type RestartPolicy struct {
	// Cutoff is the optimal restart budget (+Inf: never restart).
	Cutoff float64
	// ExpectedRuntime is E[T] under the optimal policy.
	ExpectedRuntime float64
	// Gain is E[Y]/ExpectedRuntime; ≤ 1+ε means restarts don't help
	// and parallel multi-walk is the better lever.
	Gain float64
}

// OptimalRestart prices the classic alternative to parallelism — cut
// runs off and retry — from the same law (Luby–Sinclair–Zuckerman
// expected-runtime formula). It is exactly the fitted-optimal row of
// Policies, without pricing the rest of the panel. On a plug-in law
// the cutoff is one of the observed runtimes and may be the sample
// minimum: a single lucky short run makes restarting there look like
// a win on the sample alone.
func (m *Model) OptimalRestart() (RestartPolicy, error) {
	p, e, err := policy.Optimal(m.law)
	if err != nil {
		return RestartPolicy{}, fmt.Errorf("lasvegas: %w", err)
	}
	return RestartPolicy{Cutoff: p.Cutoff, ExpectedRuntime: e, Gain: m.law.Mean() / e}, nil
}

// Candidate is one entry of the ranked model-selection table: a
// family, its fitted model (nil when fitting failed), and its KS and
// Anderson–Darling verdicts.
type Candidate struct {
	Family Family
	// Law renders the fitted law with its parameters ("" when the
	// family could not be fitted). It is set even when Model is nil —
	// e.g. the Lévy law fits but has no finite mean to predict with.
	Law string
	// Model is the fitted model; nil when Err != nil.
	Model *Model
	// KS is the Kolmogorov–Smirnov verdict (zero when Err != nil).
	KS GoodnessOfFit
	// AD is the tail-sensitive Anderson–Darling verdict; ADValid
	// reports whether it could be computed.
	AD      GoodnessOfFit
	ADValid bool
	// LogLik is the censored log-likelihood of the fit — the ranking
	// criterion of the WithCensoredFit path, where KS p-values only
	// see the uncensored region. LogLikValid reports whether it was
	// computed (censored fits only).
	LogLik      float64
	LogLikValid bool
	// Err is non-nil when the family could not be fitted.
	Err error
}

// fitSample fits every configured family to a complete sample, one
// family per task on up to WithWorkers goroutines, and returns the
// public candidate table in fit.Auto's order.
func (p *Predictor) fitSample(sample []float64) ([]Candidate, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("lasvegas: %w", fit.ErrSample)
	}
	results := make([]fit.Result, len(p.cfg.families))
	cands := make([]Candidate, len(p.cfg.families))
	_ = fanout.Run(p.cfg.workers, len(cands), func(i int) error {
		r := fit.One(sample, fit.Family(p.cfg.families[i]))
		results[i] = r
		c := Candidate{Family: Family(r.Family), Err: r.Err}
		if r.Err == nil {
			c.Law = r.Dist.String()
			// The Lévy law fits but has no finite mean, hence no
			// speed-up model; its KS/AD verdicts below still stand.
			if m, err := newModel(Family(r.Family), r.Dist, p.cfg.alpha); err == nil {
				m.gof = toGoF(r.KS)
				m.tested = true
				c.Model = m
			}
			c.KS = toGoF(r.KS)
			if ad, err := ks.AndersonDarling(sample, r.Dist); err == nil {
				c.AD = toGoF(ad)
				c.ADValid = true
			}
		}
		cands[i] = c
		return nil
	})
	ranked := make([]Candidate, 0, len(cands))
	for _, i := range fit.Rank(results) {
		ranked = append(ranked, cands[i])
	}
	return ranked, nil
}

func toGoF(r ks.Result) GoodnessOfFit {
	return GoodnessOfFit{Stat: r.D, PValue: r.PValue, N: r.N}
}

// FitAll fits every configured candidate family to the campaign and
// returns the candidates ranked by descending KS p-value (failed fits
// last) — the paper's §6 model-selection table. Censored campaigns
// are rejected with ErrCensored unless WithCensoredFit is enabled, in
// which case the censored maximum-likelihood estimators run instead
// and candidates are ranked by censored log-likelihood with KS and AD
// verdicts restricted to the uncensored region. Sketch-backed
// campaigns fit against the sketch's quantile pseudo-sample and tag
// their models EstimatorSketch — within the sketch's rank-error bound
// of the raw-sample fit, with no dependence on the stream length.
func (p *Predictor) FitAll(c *Campaign) ([]Candidate, error) {
	if c != nil && c.IsCensored() && p.cfg.censoredFit {
		return p.fitCensoredAll(c)
	}
	if c.HasSketch() && !c.IsCensored() {
		return p.fitSketchAll(c)
	}
	sample, err := fitInput(c)
	if err != nil {
		return nil, err
	}
	return p.fitSample(sample)
}

// maxSketchFitSample caps the pseudo-sample the parametric estimators
// see for sketch-backed campaigns: quantiles at evenly-spread ranks,
// enough to saturate every estimator while keeping fits O(1) in the
// stream length. Below the cap the pseudo-sample IS the sorted sample
// whenever the sketch is still exact, so small sketch-backed
// campaigns fit identically to raw ones up to summation order.
const maxSketchFitSample = 4096

// fitSketchAll is FitAll's sketch branch: the sketch's quantile
// pseudo-sample through the ordinary complete-sample estimators, the
// candidates' models tagged EstimatorSketch. KS/AD verdicts are
// computed against the pseudo-sample and inherit the sketch's
// rank-error bound.
func (p *Predictor) fitSketchAll(c *Campaign) ([]Candidate, error) {
	sk, err := c.RuntimeSketch(0)
	if err != nil {
		return nil, err
	}
	m := c.TotalRuns()
	if m > maxSketchFitSample {
		m = maxSketchFitSample
	}
	cands, err := p.fitSample(sk.FitSample(m))
	if err != nil {
		return nil, err
	}
	for i := range cands {
		if cands[i].Model != nil {
			cands[i].Model.estimator = EstimatorSketch
		}
	}
	return cands, nil
}

// fitCensoredAll is FitAll's censored branch: the internal/survival
// estimators over the configured families, ranked by censored
// log-likelihood. Families without a censored estimator fail
// per-candidate rather than poisoning the table.
func (p *Predictor) fitCensoredAll(c *Campaign) ([]Candidate, error) {
	if len(c.Iterations) == 0 {
		return nil, ErrEmptyCampaign
	}
	values, flags := c.Observations()
	frac := c.CensoredFraction()
	// An explicit WithFamilies choice is honoured (censored-incapable
	// members become failed candidates); the default candidate set is
	// CensoredFamilies, not DefaultFamilies — the min-stable Weibull
	// has a censored estimator and belongs in the race.
	families := p.cfg.families
	if !p.cfg.famSet {
		families = CensoredFamilies()
	}
	supported := make([]survival.Family, 0, len(families))
	var unsupported []Candidate
	for _, f := range families {
		if sf, ok := survivalFamily(f); ok {
			supported = append(supported, sf)
		} else {
			unsupported = append(unsupported, Candidate{
				Family: f,
				Err: fmt.Errorf("lasvegas: family %q has no censored estimator (censored candidates: %v)",
					f, CensoredFamilies()),
			})
		}
	}
	if len(supported) == 0 {
		return unsupported, nil
	}
	results, err := survival.Auto(values, flags, float64(c.Budget), supported...)
	if err != nil {
		if errors.Is(err, survival.ErrAllCensored) {
			return nil, fmt.Errorf("%w: all %d runs hit the %d-iteration budget — no uncensored observation to anchor a fit",
				ErrCensored, len(c.Iterations), c.Budget)
		}
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	cands := make([]Candidate, 0, len(results)+len(unsupported))
	for _, r := range results {
		cand := Candidate{Family: Family(r.Family), Err: r.Err}
		if r.Err == nil {
			cand.Law = r.Dist.String()
			cand.LogLik, cand.LogLikValid = r.LogLik, true
			if m, err := newModel(Family(r.Family), r.Dist, p.cfg.alpha); err == nil {
				m.gof = toGoF(r.KS)
				m.tested = true
				m.censFrac = frac
				m.estimator = EstimatorCensoredMLE
				cand.Model = m
			}
			cand.KS = toGoF(r.KS)
			if r.ADValid {
				cand.AD = toGoF(r.AD)
				cand.ADValid = true
			}
		}
		cands = append(cands, cand)
	}
	return append(cands, unsupported...), nil
}

// survivalFamily maps a public family onto its censored estimator.
func survivalFamily(f Family) (survival.Family, bool) {
	switch f {
	case Exponential:
		return survival.FamExponential, true
	case ShiftedExponential:
		return survival.FamShiftedExponential, true
	case LogNormal:
		return survival.FamLogNormal, true
	case Weibull:
		return survival.FamWeibull, true
	}
	return "", false
}

// Fit returns the best accepted model: the highest-KS-p-value family
// that passes the test at the configured α. When every family is
// rejected or fails, the error wraps ErrNoAcceptableFit.
func (p *Predictor) Fit(c *Campaign) (*Model, error) {
	cands, err := p.FitAll(c)
	if err != nil {
		return nil, err
	}
	for _, cand := range cands {
		if cand.Err == nil && cand.Model != nil && !cand.KS.RejectedAt(p.cfg.alpha) {
			return cand.Model, nil
		}
	}
	return nil, fmt.Errorf("%w (families %v, α=%v)", ErrNoAcceptableFit, p.cfg.families, p.cfg.alpha)
}

// PlugIn returns the nonparametric plug-in model: the empirical
// distribution of the campaign itself, with no family assumption —
// the paper's model-free baseline predictor. Under WithCensoredFit a
// censored campaign yields the Kaplan–Meier product-limit law
// instead, whose step CDF, quantile and exact MinExpectation reduce
// to the empirical ones when nothing is censored. A sketch-backed
// campaign yields the QuantileSketch law — the sketch itself, which
// keeps the exact one-pass MinExpectation form and matches the
// empirical plug-in within the sketch's rank-error bound
// (bit-identically, while the sketch is still exact).
func (p *Predictor) PlugIn(c *Campaign) (*Model, error) {
	if c != nil && c.IsCensored() && p.cfg.censoredFit {
		values, flags := c.Observations()
		km, err := survival.NewKaplanMeier(values, flags)
		if err != nil {
			if errors.Is(err, survival.ErrAllCensored) {
				return nil, fmt.Errorf("%w: all %d runs hit the %d-iteration budget — no uncensored observation to anchor a fit",
					ErrCensored, len(c.Iterations), c.Budget)
			}
			return nil, fmt.Errorf("lasvegas: %w", err)
		}
		m, err := newModel(KaplanMeier, km, p.cfg.alpha)
		if err != nil {
			return nil, err
		}
		m.censFrac = c.CensoredFraction()
		m.estimator = EstimatorKaplanMeier
		return m, nil
	}
	if c.HasSketch() && !c.IsCensored() {
		sk, err := c.RuntimeSketch(0)
		if err != nil {
			return nil, err
		}
		m, err := newModel(QuantileSketch, sk, p.cfg.alpha)
		if err != nil {
			return nil, err
		}
		m.estimator = EstimatorSketch
		return m, nil
	}
	sample, err := fitInput(c)
	if err != nil {
		return nil, err
	}
	e, err := dist.NewEmpirical(sample)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	return newModel(Empirical, e, p.cfg.alpha)
}

// fitInput validates a campaign for estimation paths that require a
// complete raw sample: non-empty, uncensored, and with per-run
// observations (not only a sketch).
func fitInput(c *Campaign) ([]float64, error) {
	if c == nil || c.TotalRuns() == 0 {
		return nil, ErrEmptyCampaign
	}
	if len(c.Iterations) == 0 {
		return nil, fmt.Errorf("%w: this path needs per-run observations (Fit, FitAll and PlugIn accept sketch-backed campaigns)",
			ErrNoRawRuns)
	}
	if c.IsCensored() {
		return nil, fmt.Errorf("%w: %d of %d runs hit the %d-iteration budget (Fit, FitAll and PlugIn accept censored campaigns under WithCensoredFit)",
			ErrCensored, len(c.Censored), len(c.Iterations), c.Budget)
	}
	return c.Iterations, nil
}

// NegligibleShift reports whether the paper's x0 ≈ 0 simplification
// applies to the campaign: the observed minimum is negligible against
// the mean (the Costas 21 observation of §6.3), so the unshifted
// exponential — and hence exactly linear speed-up — is in play.
func NegligibleShift(c *Campaign) bool {
	if c == nil {
		return false
	}
	return fit.NegligibleShift(c.Iterations)
}

// CI is a bootstrap confidence interval for a predicted speed-up.
type CI struct {
	Cores   int
	Speedup float64 // point prediction from the full campaign
	Lo, Hi  float64 // percentile bootstrap bounds
	Level   float64
}

// BootstrapCI quantifies the sampling noise of the campaign in the
// prediction: percentile-bootstrap confidence bands for G(n) at each
// core count, using the plug-in fitter (resamples and level from
// WithBootstrap).
func (p *Predictor) BootstrapCI(ctx context.Context, c *Campaign, cores []int) ([]CI, error) {
	sample, err := fitInput(c)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cis, err := core.BootstrapCI(sample, cores, core.PlugInFitter,
		p.cfg.resamples, p.cfg.level, p.cfg.seed^0xB007)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	out := make([]CI, len(cis))
	for i, ci := range cis {
		out[i] = CI{Cores: ci.Cores, Speedup: ci.Speedup, Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}
	}
	return out, nil
}
