// Package policy prices restart strategies for a Las Vegas runtime
// law and proves the prices by replaying them. It is the daemon's
// answer to the operator question the paper leaves open: *should this
// solver restart, and on what schedule?*
//
// Four strategies are compared on equal footing:
//
//   - no-restart: run to completion, E[T] = E[Y];
//   - fixed-cutoff at t: the Luby–Sinclair–Zuckerman price
//     E[T(t)] = E[min(Y,t)] / F(t);
//   - Luby with unit u: cutoffs u·(1,1,2,1,1,2,4,…) — the universal
//     schedule, within an O(log) factor of the unknown optimum;
//   - fitted-optimal: the best fixed cutoff for the law at hand
//     (Brent search on smooth laws, an exact atom scan on step laws).
//     This is the one restart pricer: lasvegas.Model.OptimalRestart
//     and the panel's fitted-optimal row both come from Optimal.
//
// On an exponential law restarts are exactly neutral (memorylessness);
// on a shifted exponential they strictly hurt, since each restart
// repays the shift; heavy tails reward a finite cutoff.
//
// Every closed form runs through E[min(Y,c)], which step laws expose
// exactly via a TruncatedMean method — so plug-in pricing never
// integrates a discontinuous CDF. The one step-law implementation is
// dist.Step: the empirical law, Kaplan–Meier and quantile sketches are
// all built on it, and BootstrapCI prices each resample as one. Smooth
// fitted laws fall back to tanh-sinh quadrature of the CDF:
// E[min(Y,c)] = c − ∫₀ᶜ F.
//
// The closed forms are validated two independent ways (see Simulate
// and BootstrapCI): a deterministic seeded replay that re-runs the
// observed runtimes under each schedule with restart truncation, and a
// resampling bootstrap that prices each resample exactly to yield a CI
// on the policy's expected runtime.
//
// Both checks draw by inverse CDF. On a step law they map each uniform
// straight to its atom with dist.AtomIndex, which applies Quantile's
// own rule in O(1) expected time. A bootstrap resample of a step law
// is counted per atom and expanded in atom order instead of sorted,
// which yields exactly the sorted draws, bit for bit.
package policy

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"lasvegas/internal/dist"
	"lasvegas/internal/optim"
	"lasvegas/internal/quad"
)

// Kind names a restart strategy. The strings are wire-stable: they
// appear in /v1/policy bodies, lvpredict tables, and golden files.
type Kind string

const (
	NoRestart     Kind = "no-restart"
	FixedCutoff   Kind = "fixed-cutoff"
	Luby          Kind = "luby"
	FittedOptimal Kind = "fitted-optimal"
)

// Policy is a concrete restart schedule: a Kind plus its parameter.
// Cutoff parameterizes FixedCutoff and FittedOptimal (+Inf means
// "never restart"); Unit scales the Luby sequence.
type Policy struct {
	Kind   Kind
	Cutoff float64
	Unit   float64
}

// CutoffAt returns the cutoff for the i-th attempt (1-based) —
// constant for fixed schedules, the scaled Luby term for Luby, +Inf
// for no-restart.
func (p Policy) CutoffAt(i int) float64 {
	switch p.Kind {
	case FixedCutoff, FittedOptimal:
		return p.Cutoff
	case Luby:
		return p.Unit * float64(lubyTerm(i))
	default:
		return math.Inf(1)
	}
}

func (p Policy) validate() error {
	switch p.Kind {
	case NoRestart:
		return nil
	case FixedCutoff, FittedOptimal:
		if math.IsInf(p.Cutoff, 1) {
			return nil // "never restart" is a valid degenerate cutoff
		}
		if !(p.Cutoff > 0) {
			return fmt.Errorf("policy: %s cutoff %v", p.Kind, p.Cutoff)
		}
		return nil
	case Luby:
		if !(p.Unit > 0) || math.IsInf(p.Unit, 1) {
			return fmt.Errorf("policy: luby unit %v", p.Unit)
		}
		return nil
	default:
		return fmt.Errorf("policy: unknown kind %q", p.Kind)
	}
}

// truncatedMeaner is the exact fast path: step laws (dist.Step and
// the estimators built on it, quantile sketches) expose E[min(Y,c)]
// in closed form.
type truncatedMeaner interface {
	TruncatedMean(c float64) float64
}

// truncMean returns E[min(Y,c)] under d: exactly on step laws, by
// tanh-sinh quadrature of the CDF elsewhere.
func truncMean(d dist.Dist, c float64) (float64, error) {
	if tm, ok := d.(truncatedMeaner); ok {
		return tm.TruncatedMean(c), nil
	}
	lo, _ := d.Support()
	if math.IsInf(lo, -1) || lo < 0 {
		lo = 0
	}
	if c <= lo {
		return c, nil // F ≡ 0 below the support: min(Y,c) = c surely
	}
	// E[min(Y,c)] = c − ∫₀ᶜ F.
	integral, err := quad.TanhSinh(d.CDF, lo, c, 1e-10)
	if err != nil {
		return 0, fmt.Errorf("policy: integrating CDF: %w", err)
	}
	return c - integral, nil
}

// Expected prices policy p under distribution d in closed form. A
// schedule that can never succeed (cutoffs below the support forever)
// prices at +Inf rather than erroring: an infinitely bad policy is
// still a comparable row.
func Expected(d dist.Dist, p Policy) (float64, error) {
	if d == nil {
		return 0, errors.New("policy: nil distribution")
	}
	return price(d, p)
}

func price(d dist.Dist, p Policy) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	switch p.Kind {
	case NoRestart:
		return d.Mean(), nil
	case FixedCutoff, FittedOptimal:
		if math.IsInf(p.Cutoff, 1) {
			return d.Mean(), nil
		}
		fc := d.CDF(p.Cutoff)
		if fc <= 0 {
			return math.Inf(1), nil
		}
		tm, err := truncMean(d, p.Cutoff)
		if err != nil {
			return 0, err
		}
		return tm / fc, nil
	default: // Luby
		return lubyExpected(d, p.Unit)
	}
}

const (
	// lubySurvivalEps truncates the Luby series once the probability
	// of still running is negligible; the discarded tail is bounded
	// by survival · E[remaining cost] ≲ 1e-12 · E[T].
	lubySurvivalEps = 1e-12
	// lubyMaxRuns bounds the series when the unit sits so far below
	// the support that success probability stays ~0 for a long time.
	lubyMaxRuns = 1 << 20
)

// lubyExpected prices the Luby schedule by the exact series
//
//	E[T] = Σᵢ ( ∏_{j<i} (1−F(cⱼ)) ) · E[min(Y,cᵢ)],  cᵢ = u·luby(i),
//
// memoizing E[min(Y,c)] and F(c) per distinct cutoff — the Luby
// sequence only ever visits log-many distinct values, so the series
// costs O(runs) lookups plus O(log) truncated means.
func lubyExpected(d dist.Dist, u float64) (float64, error) {
	type memo struct {
		tm, fc float64
		ok     bool
	}
	var cache [64]memo // by log2 of the term
	survival := 1.0
	var total float64
	w := newLubyWalk()
	for i := 1; i <= lubyMaxRuns; i++ {
		m := &cache[bits.TrailingZeros64(uint64(w.term))]
		if !m.ok {
			c := u * float64(w.term)
			tm, err := truncMean(d, c)
			if err != nil {
				return 0, err
			}
			*m = memo{tm: tm, fc: d.CDF(c), ok: true}
		}
		total += survival * m.tm
		survival *= 1 - m.fc
		if survival < lubySurvivalEps {
			return total, nil
		}
		w.next()
	}
	return 0, fmt.Errorf("policy: luby series did not converge in %d runs (unit %g below the law's support?)", lubyMaxRuns, u)
}

// lubyWalk steps through the Luby sequence by Knuth's reluctant
// doubling: term is lubyTerm(i) at the i-th step, in O(1) per step.
type lubyWalk struct{ a, term int64 }

func newLubyWalk() lubyWalk { return lubyWalk{a: 1, term: 1} }

func (w *lubyWalk) next() {
	if w.a&-w.a == w.term {
		w.a++
		w.term = 1
	} else {
		w.term *= 2
	}
}

// lubyTerm returns the i-th term (1-based) of the Luby universal
// sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,… without materializing a
// prefix — attempt indices in the replay are unbounded.
func lubyTerm(i int) int64 {
	if i < 1 {
		return 1
	}
	// If i = 2^k − 1, the term is 2^{k−1}; otherwise recurse on
	// i − (2^{k−1} − 1) with k the smallest power with i < 2^k − 1.
	for k := uint(1); ; k++ {
		if int64(i) == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if int64(i) < (1<<k)-1 {
			return lubyTerm(i - (1 << (k - 1)) + 1)
		}
	}
}

// optimalGrid caps the number of atoms scanned when locating the
// optimal cutoff of a step law.
const optimalGrid = 512

// Optimal finds the best fixed-cutoff policy under d. Step laws —
// recognizable by their exact TruncatedMean — get an exact scan over
// their atoms, where the optimum of a piecewise-linear-over-step
// objective must sit; smooth laws get a Brent search on a log cutoff
// axis. Either way, a win of less than a ppb over running to
// completion is numerical noise, and the result is Cutoff = +Inf
// priced at the mean: restarts cannot help. An infinite mean (e.g.
// Lévy) makes any finite price a win.
func Optimal(d dist.Dist) (Policy, float64, error) {
	if d == nil {
		return Policy{}, 0, errors.New("policy: nil distribution")
	}
	meanY := d.Mean()
	if math.IsNaN(meanY) {
		return Policy{}, 0, errors.New("policy: distribution has no mean")
	}
	search := optimalSmooth
	if _, ok := d.(truncatedMeaner); ok {
		search = optimalStep
	}
	c, e, err := search(d, meanY)
	if err != nil {
		return Policy{}, 0, err
	}
	if e >= meanY*(1-1e-9) {
		return Policy{Kind: FittedOptimal, Cutoff: math.Inf(1)}, meanY, nil
	}
	return Policy{Kind: FittedOptimal, Cutoff: c}, e, nil
}

// optimalSmooth minimizes the fixed-cutoff price by Brent search over
// log c, spanning the law's quantile range [q(1e-4), q(1-1e-6)].
func optimalSmooth(d dist.Dist, meanY float64) (c, e float64, err error) {
	loQ := d.Quantile(1e-4)
	hiQ := d.Quantile(1 - 1e-6)
	if !(loQ > 0) {
		loQ = math.Max(1e-9, d.Quantile(0.01))
	}
	if !(hiQ > loQ) || math.IsInf(hiQ, 1) {
		hiQ = math.Max(loQ*1e6, meanY*100)
	}
	obj := func(logc float64) float64 {
		e, err := price(d, Policy{Kind: FixedCutoff, Cutoff: math.Exp(logc)})
		if err != nil {
			return math.Inf(1)
		}
		return e
	}
	logc, err := optim.BrentMin(obj, math.Log(loQ), math.Log(hiQ), 1e-8)
	if err != nil {
		return 0, 0, fmt.Errorf("policy: cutoff search: %w", err)
	}
	c = math.Exp(logc)
	e, err = price(d, Policy{Kind: FixedCutoff, Cutoff: c})
	return c, e, err
}

// optimalStep scans the step law's atoms for the cheapest fixed
// cutoff — every atom when the law has at most optimalGrid of them,
// else optimalGrid quantile atoms — and returns (+Inf, E[Y]) when none
// beats running to completion. On unit weights with at most
// optimalGrid atoms the quantile grid visits every atom too, in the
// same order; on weights it would skip an atom lighter than one grid
// step.
func optimalStep(d dist.Dist, meanY float64) (bestC, bestE float64, err error) {
	n := optimalGrid
	cutoff := func(i int) float64 { return d.Quantile(float64(i+1) / float64(optimalGrid+1)) }
	if sl, ok := d.(interface{ StepLaw() *dist.Step }); ok {
		if st := sl.StepLaw(); st != nil && st.Len() <= optimalGrid {
			atoms := st.Sorted()
			n = len(atoms)
			cutoff = func(i int) float64 { return atoms[i] }
		}
	}
	bestC, bestE = math.Inf(1), meanY
	prev := math.NaN()
	for i := range n {
		c := cutoff(i)
		if c == prev || !(c > 0) {
			continue
		}
		prev = c
		e, err := price(d, Policy{Kind: FixedCutoff, Cutoff: c})
		if err != nil {
			return 0, 0, err
		}
		if e < bestE {
			bestC, bestE = c, e
		}
	}
	return bestC, bestE, nil
}

// Evaluation is one priced row of a Panel.
type Evaluation struct {
	Policy   Policy
	Expected float64 // closed-form E[T]; +Inf if the schedule never succeeds
	Gain     float64 // E[Y] / Expected: >1 means the policy beats no-restart
}

// tiePreference ranks kinds when their prices tie within tolerance:
// prefer the simpler or more robust policy. On a memoryless law all
// four rows tie at E[Y] and no-restart must win.
func tiePreference(k Kind) int {
	switch k {
	case NoRestart:
		return 0
	case FittedOptimal:
		return 1
	case Luby:
		return 2
	default:
		return 3
	}
}

// priceTied reports whether two prices are operationally
// indistinguishable (within a ppm, or both infinite).
func priceTied(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// Panel prices the standard four-way comparison under d and returns
// it ranked best-first: no-restart, fixed-cutoff at the law's median,
// Luby with unit q(0.05), and the fitted optimum. Ties within a ppm
// break by tiePreference, so the winner is deterministic — and is
// no-restart on an exponential law, by memorylessness.
func Panel(d dist.Dist) ([]Evaluation, error) {
	optP, optE, err := Optimal(d) // rejects a nil law and one with no mean
	if err != nil {
		return nil, err
	}
	meanY := d.Mean()
	median := d.Quantile(0.5)
	unit := d.Quantile(0.05)
	if !(unit > 0) {
		unit = math.Max(median/16, math.SmallestNonzeroFloat64)
	}
	evals := []Evaluation{
		{Policy: Policy{Kind: NoRestart}, Expected: meanY},
		{Policy: Policy{Kind: FixedCutoff, Cutoff: median}},
		{Policy: Policy{Kind: Luby, Unit: unit}},
		{Policy: optP, Expected: optE},
	}
	for i := range evals {
		e := &evals[i]
		if e.Policy.Kind == FixedCutoff || e.Policy.Kind == Luby {
			e.Expected, err = price(d, e.Policy)
			if err != nil {
				return nil, err
			}
		}
		e.Gain = meanY / e.Expected
	}
	sort.SliceStable(evals, func(i, j int) bool {
		a, b := evals[i], evals[j]
		if priceTied(a.Expected, b.Expected) {
			return tiePreference(a.Policy.Kind) < tiePreference(b.Policy.Kind)
		}
		return a.Expected < b.Expected
	})
	return evals, nil
}
