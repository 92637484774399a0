package lasvegas

import (
	"context"
	"fmt"
	"time"

	"lasvegas/internal/adaptive"
	"lasvegas/internal/csp"
	"lasvegas/internal/multiwalk"
	"lasvegas/internal/problems"
	"lasvegas/internal/sat"
	"lasvegas/internal/xrand"
)

// SpeedupPoint is one (cores, speed-up) point of a predicted,
// simulated or measured curve.
type SpeedupPoint struct {
	Cores   int
	Speedup float64
	// MeanZ is the mean parallel runtime E[Z(n)] behind the point.
	MeanZ float64
	// StdErr is the standard error of MeanZ (0 for predictions).
	StdErr float64
	// Reps is the number of repetitions averaged (0 for predictions).
	Reps int
	// Simulated marks min-resampling measurements (vs real walkers).
	Simulated bool
}

// SimulateSpeedups measures the multi-walk speed-up curve of a
// campaign by min-resampling: Z(n) is drawn as the minimum of n
// resampled sequential runtimes via the inverse empirical CDF (O(1)
// per draw), which is what makes the paper's 8192-core regime
// instant. Repetitions come from WithSimReps, the random stream from
// WithSeed. Censored campaigns are rejected with ErrCensored.
func (p *Predictor) SimulateSpeedups(c *Campaign, cores []int) ([]SpeedupPoint, error) {
	pool, err := fitInput(c)
	if err != nil {
		return nil, err
	}
	pts, err := multiwalk.MeasureSimulated(pool, cores, p.cfg.simReps, p.cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	return fromSpeedupPoints(pts), nil
}

func fromSpeedupPoints(pts []multiwalk.SpeedupPoint) []SpeedupPoint {
	out := make([]SpeedupPoint, len(pts))
	for i, pt := range pts {
		out[i] = SpeedupPoint{
			Cores: pt.Cores, Speedup: pt.Speedup, MeanZ: pt.MeanZ,
			StdErr: pt.StdErr, Reps: pt.Reps, Simulated: pt.Simulated,
		}
	}
	return out
}

// problemRunner builds the one runner of a problem instance behind
// every campaign, shard and race: each call is one sequential solver
// run, capped at budget iterations (0 = unbounded) and honouring
// cancellation. It also returns the instance name. The SAT3 formula
// is derived from seed, so a campaign and a race with the same seed
// run the same instance.
func problemRunner(prob Problem, size int, seed uint64, budget int64) (multiwalk.Runner, string, error) {
	if !prob.Known() {
		return nil, "", fmt.Errorf("%w: %q (known: %v)", ErrUnknownProblem, prob, Problems())
	}
	if size <= 0 {
		size = prob.DefaultSize()
	}
	name := fmt.Sprintf("%s-%d", prob, size)
	if prob == SAT3 {
		clauses := int(satClauseRatio * float64(size))
		f, _, err := sat.RandomPlantedKSAT(size, clauses, 3, xrand.New(seed^0x5A73))
		if err != nil {
			return nil, "", fmt.Errorf("lasvegas: %w", err)
		}
		params := sat.Params{MaxFlips: budget}
		if _, err := sat.NewSolver(f, params); err != nil {
			return nil, "", fmt.Errorf("lasvegas: %w", err)
		}
		return func(ctx context.Context, r *xrand.Rand) multiwalk.WalkResult {
			s, err := sat.NewSolver(f, params)
			if err != nil {
				return multiwalk.WalkResult{}
			}
			res := s.RunContext(ctx, r)
			return multiwalk.WalkResult{Iterations: res.Flips, Solved: res.Solved}
		}, name, nil
	}
	kind := problems.Kind(prob)
	factory := func() (csp.Problem, error) { return problems.New(kind, size) }
	runner, err := multiwalk.SolverRunner(factory, adaptive.Params{MaxIterations: budget})
	if err != nil {
		return nil, "", fmt.Errorf("lasvegas: %w", err)
	}
	return runner, name, nil
}

// MeasureSpeedups measures real multi-walk speed-ups: for each core
// count it races that many goroutine walkers (first solution wins,
// losers are cancelled), reps times, and reports the iteration-metric
// speed-up against seqMean — the miniature of the paper's Grid'5000
// runs. Wall-clock speed-ups saturate at the physical core count;
// iteration speed-ups stay meaningful beyond it (paper §5.5).
//
// The races run the instance Collect runs: for SAT3 the planted
// formula is derived from the Predictor seed, so measure with the
// same WithSeed as the baseline campaign.
func (p *Predictor) MeasureSpeedups(ctx context.Context, prob Problem, size int, seqMean float64, cores []int, reps int) ([]SpeedupPoint, error) {
	runner, _, err := problemRunner(prob, size, p.cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	pts, err := multiwalk.MeasureReal(ctx, runner, seqMean, cores, reps, p.cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %w", err)
	}
	return fromSpeedupPoints(pts), nil
}

// RaceOutcome describes one real multi-walk race.
type RaceOutcome struct {
	// Winner is the index of the first walker to find a solution.
	Winner int
	// Iterations is the winner's runtime — one draw of Z(n).
	Iterations int64
	// TotalIterations sums the work of every walker, the parallel
	// scheme's total effort.
	TotalIterations int64
	// Wall is the elapsed wall-clock time of the race.
	Wall time.Duration
}

// Race runs one real multi-walk execution: `walkers` concurrent
// solvers on the problem instance, first solution wins, losers are
// cancelled (the paper's Definition 2, goroutines as cores).
func (p *Predictor) Race(ctx context.Context, prob Problem, size, walkers int, seed uint64) (RaceOutcome, error) {
	runner, _, err := problemRunner(prob, size, p.cfg.seed, 0)
	if err != nil {
		return RaceOutcome{}, err
	}
	out, err := multiwalk.Run(ctx, runner, multiwalk.Options{Walkers: walkers, Seed: seed})
	if err != nil {
		return RaceOutcome{}, fmt.Errorf("lasvegas: %w", err)
	}
	return RaceOutcome{
		Winner:          out.Winner,
		Iterations:      out.Iterations,
		TotalIterations: out.TotalIterations,
		Wall:            out.Wall,
	}, nil
}
