package lasvegas

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"lasvegas/internal/fanout"
	"lasvegas/internal/policy"
)

// Policy kind strings, as they appear in PolicyEvaluation.Policy,
// PolicyRow.Policy, /v1/policy bodies and lvpredict tables.
const (
	PolicyNoRestart     = string(policy.NoRestart)
	PolicyFixedCutoff   = string(policy.FixedCutoff)
	PolicyLuby          = string(policy.Luby)
	PolicyFittedOptimal = string(policy.FittedOptimal)
)

// PolicyEvaluation is one closed-form-priced restart strategy under a
// model's law (see Model.Policies). Cutoff parameterizes fixed-cutoff
// and fitted-optimal strategies (+Inf means "never restart"); Unit
// scales the Luby sequence; both are zero when not applicable.
type PolicyEvaluation struct {
	Policy   string
	Cutoff   float64
	Unit     float64
	Expected float64 // closed-form E[T]; +Inf if the schedule never succeeds
	Gain     float64 // E[Y] / Expected: >1 beats running to completion
}

// Policies prices the standard restart-policy panel — no-restart,
// fixed-cutoff at the law's median, Luby with unit q(0.05), and the
// fitted optimum — in closed form under the model's law, ranked
// best-first. Ties within a ppm break deterministically toward the
// simpler policy, so a memoryless law ranks no-restart first.
func (m *Model) Policies() ([]PolicyEvaluation, error) {
	evals, err := policy.Panel(m.law)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	out := make([]PolicyEvaluation, len(evals))
	for i, e := range evals {
		out[i] = PolicyEvaluation{
			Policy:   string(e.Policy.Kind),
			Cutoff:   e.Policy.Cutoff,
			Unit:     e.Policy.Unit,
			Expected: e.Expected,
			Gain:     e.Gain,
		}
	}
	return out, nil
}

// PolicyRow is one fully-evaluated strategy in a PolicyTable: the
// closed-form price under the fitted law, the replayed mean under the
// campaign's own plug-in law, and a bootstrap CI on the plug-in
// price. Lo/Hi may be +Inf when a resample cannot succeed under the
// schedule.
type PolicyRow struct {
	Policy    string
	Cutoff    float64
	Unit      float64
	Expected  float64 // closed-form E[T] under the fitted law
	Simulated float64 // seeded replay mean under the plug-in law
	StdErr    float64 // replay standard error
	Lo, Hi    float64 // bootstrap CI on the plug-in price
	Gain      float64 // fitted-law E[Y] / Expected
}

// PolicyTable ranks restart strategies for one campaign: rows sorted
// best-first by closed-form price under the model's law, each backed
// by a deterministic replay and a bootstrap interval computed from
// the campaign's plug-in law. Winner is Rows[0].Policy.
type PolicyTable struct {
	Rows      []PolicyRow
	Winner    string
	Law       string  // the fitted law the prices come from
	Estimator string  // estimator kind behind the law
	Level     float64 // bootstrap confidence level
	Reps      int     // replay repetitions per row
	Resamples int     // bootstrap resamples per row
}

// PolicyTable builds the ranked restart-policy comparison for c. The
// strategy panel and its closed-form prices come from m's law; pass
// m == nil to fit first (falling back to the plug-in law when no
// family is accepted). The replay and bootstrap always run against
// the campaign's own plug-in law — observed runtimes, not the fit —
// so a wrong fitted family shows up as closed-form/replay
// disagreement in the table. Both are seeded from WithSeed and
// deterministic, and the rows' replays and bootstraps run on up to
// WithWorkers goroutines. ctx is checked before each of them.
func (p *Predictor) PolicyTable(ctx context.Context, c *Campaign, m *Model) (*PolicyTable, error) {
	if c == nil {
		return nil, errors.New("lasvegas: nil campaign")
	}
	if m == nil {
		var err error
		m, err = p.Fit(c)
		if errors.Is(err, ErrNoAcceptableFit) {
			m, err = p.PlugIn(c)
		}
		if err != nil {
			return nil, err
		}
	}
	plug, err := p.PlugIn(c)
	if err != nil {
		return nil, err
	}
	evals, err := policy.Panel(m.law)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	table := &PolicyTable{
		Law:       m.String(),
		Estimator: m.Estimator(),
		Level:     p.cfg.level,
		Reps:      p.cfg.simReps,
		Resamples: p.cfg.resamples,
	}
	// Each row's replay and bootstrap are independent seeded tasks, so
	// they spread over the workers with results identical to a serial
	// loop. Task r bootstraps row r and task k+r replays it: a
	// bootstrap re-prices every resample of the whole campaign and
	// takes several times as long as its replay, so the bootstraps
	// start first and the replays fill in behind them. Every task runs
	// to completion with its error in its own slot, so the error
	// reported is the serial loop's, that of the first failing row,
	// replay before bootstrap; only cancellation stops the pool.
	n, k := c.TotalRuns(), len(evals)
	sims, simErrs := make([]policy.SimResult, k), make([]error, k)
	cis, ciErrs := make([]policy.CI, k), make([]error, k)
	err = fanout.Run(p.cfg.workers, 2*k, func(t int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if t < k {
			pol := evals[t].Policy
			cis[t], ciErrs[t] = policy.BootstrapCI(plug.law, n, pol, p.cfg.resamples, p.cfg.level, policySeed(p.cfg.seed, pol.Kind, 0xB007))
		} else {
			pol := evals[t-k].Policy
			sims[t-k], simErrs[t-k] = policy.Simulate(plug.law, pol, p.cfg.simReps, policySeed(p.cfg.seed, pol.Kind, 0x51D))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range evals {
		if simErrs[i] != nil {
			return nil, fmt.Errorf("lasvegas: policy replay: %w", simErrs[i])
		}
		if ciErrs[i] != nil {
			return nil, fmt.Errorf("lasvegas: policy bootstrap: %w", ciErrs[i])
		}
		table.Rows = append(table.Rows, PolicyRow{
			Policy:    string(e.Policy.Kind),
			Cutoff:    e.Policy.Cutoff,
			Unit:      e.Policy.Unit,
			Expected:  e.Expected,
			Simulated: sims[i].Mean,
			StdErr:    sims[i].StdErr,
			Lo:        cis[i].Lo,
			Hi:        cis[i].Hi,
			Gain:      e.Gain,
		})
	}
	table.Winner = table.Rows[0].Policy
	return table, nil
}

// policySeed derives a per-(kind, purpose) stream from the root seed
// so replay and bootstrap draws are independent of each other and of
// every other consumer of the root seed, yet fully deterministic.
func policySeed(root uint64, kind policy.Kind, salt uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	return root ^ h.Sum64() ^ salt
}
