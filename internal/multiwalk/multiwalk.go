// Package multiwalk implements the paper's Definition 2: the
// independent multi-walk parallel execution of a Las Vegas algorithm.
// n walkers run the same algorithm from independent random streams;
// the first to find a solution wins and the others are killed. The
// parallel runtime Z(n) is the winner's runtime.
//
// Two engines are provided:
//
//   - Run executes real concurrent walkers (goroutines as cores) with
//     context cancellation — the faithful implementation, bounded in
//     useful n by the physical core count;
//   - Simulate draws Z(n) = min of n resampled sequential runtimes
//     from an observed pool — the statistical device that lets the
//     repository evaluate 256-to-8192-core behaviour (Figure 14) on a
//     laptop. Its validity is exactly the i.i.d. assumption of the
//     paper's model. Draws go through the inverse empirical CDF
//     (O(1) per repetition after one sort, independent of n);
//     SimulateBrute keeps the literal min-of-n loop, and the ablation
//     bench plus a KS cross-check tie the two engines together.
package multiwalk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"lasvegas/internal/dist"
	"lasvegas/internal/stats"
	"lasvegas/internal/xrand"
)

// ErrNoWinner is returned when every walker stopped without a
// solution (cancelled or out of budget).
var ErrNoWinner = errors.New("multiwalk: no walker found a solution")

// WalkResult is what one walker reports.
type WalkResult struct {
	Iterations int64 // iterations executed (the paper's runtime unit)
	Solved     bool
}

// Runner executes one sequential Las Vegas run. It must honour ctx
// cancellation promptly and report the iterations spent even when
// interrupted. Each invocation receives a private random stream.
type Runner func(ctx context.Context, r *xrand.Rand) WalkResult

// Options configures a multi-walk execution.
type Options struct {
	// Walkers is the number of parallel instances n (≥ 1).
	Walkers int
	// Seed derives the per-walker independent streams.
	Seed uint64
}

// Outcome describes a completed multi-walk run.
type Outcome struct {
	// Winner is the index of the first successful walker.
	Winner int
	// Iterations is the winner's iteration count — one draw of Z(n)
	// in the iteration metric.
	Iterations int64
	// Wall is the elapsed wall-clock time of the whole run — one draw
	// of Z(n) in the time metric (meaningful only when walkers ≤
	// physical cores, as in the paper's cluster).
	Wall time.Duration
	// TotalIterations sums the work of all walkers, winners and
	// losers, measuring the parallel scheme's total effort.
	TotalIterations int64
}

// Run executes opt.Walkers concurrent walkers and returns the
// winner's outcome; losing walkers are cancelled as soon as the first
// solution arrives (the "kill" of Definition 2).
func Run(ctx context.Context, runner Runner, opt Options) (Outcome, error) {
	if runner == nil {
		return Outcome{}, errors.New("multiwalk: nil runner")
	}
	if opt.Walkers < 1 {
		return Outcome{}, fmt.Errorf("multiwalk: %d walkers", opt.Walkers)
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type report struct {
		walker int
		res    WalkResult
	}
	results := make(chan report, opt.Walkers)
	root := xrand.New(opt.Seed)
	var wg sync.WaitGroup
	for w := 0; w < opt.Walkers; w++ {
		wg.Add(1)
		go func(w int, r *xrand.Rand) {
			defer wg.Done()
			results <- report{w, runner(ctx, r)}
		}(w, root.Split(uint64(w)))
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	out := Outcome{Winner: -1}
	for rep := range results {
		out.TotalIterations += rep.res.Iterations
		if rep.res.Solved && out.Winner == -1 {
			out.Winner = rep.walker
			out.Iterations = rep.res.Iterations
			out.Wall = time.Since(start)
			cancel() // kill the losers
		}
	}
	if out.Winner == -1 {
		out.Wall = time.Since(start)
		return out, ErrNoWinner
	}
	return out, nil
}

// Simulate draws reps independent realizations of Z(n) by inverting
// the empirical minimum CDF on the pool (dist.Step.MinSample):
// with U uniform,
//
//	Z(n) = Q̂(1 - (1-U)^{1/n}),   Q̂(v) = x₍⌈v·m⌉₎,
//
// the same probability-integral identity orderstat.Min.Sample uses.
// Each draw costs O(1) after one O(m log m) sort, so the whole call
// is O(m log m + reps) regardless of n — this is what makes the
// 8192-core regime of Figure 14 instant. The draw is distribution-
// identical to the literal min of n resamples (P(Z ≤ x₍ᵢ₎) =
// 1-(1-i/m)ⁿ either way, ties included); SimulateBrute keeps the
// literal engine for the ablation bench and KS cross-checks.
func Simulate(pool []float64, n, reps int, seed uint64) ([]float64, error) {
	if n < 1 || reps < 1 {
		return nil, fmt.Errorf("multiwalk: n=%d reps=%d", n, reps)
	}
	e, err := dist.NewEmpirical(pool)
	if err != nil {
		return nil, fmt.Errorf("multiwalk: runtime pool: %w", err)
	}
	r := xrand.New(seed)
	out := make([]float64, reps)
	for k := range out {
		out[k] = e.MinSample(n, r)
	}
	return out, nil
}

// SimulateBrute draws reps realizations of Z(n) by literally taking
// the minimum of n uniform resamples per repetition — O(n·reps). It
// is the reference implementation Simulate is validated against (two-
// sample KS in the tests, wall-clock in the ablation bench); use
// Simulate everywhere else.
func SimulateBrute(pool []float64, n, reps int, seed uint64) ([]float64, error) {
	if len(pool) == 0 {
		return nil, errors.New("multiwalk: empty runtime pool")
	}
	if n < 1 || reps < 1 {
		return nil, fmt.Errorf("multiwalk: n=%d reps=%d", n, reps)
	}
	r := xrand.New(seed)
	out := make([]float64, reps)
	for k := range out {
		z := pool[r.Intn(len(pool))]
		for i := 1; i < n; i++ {
			if x := pool[r.Intn(len(pool))]; x < z {
				z = x
			}
		}
		out[k] = z
	}
	return out, nil
}

// SpeedupPoint is one measured speed-up at a core count.
type SpeedupPoint struct {
	Cores     int
	Speedup   float64
	MeanZ     float64 // mean parallel runtime E[Z(n)] estimate
	Reps      int
	StdErr    float64 // standard error of MeanZ
	Simulated bool
}

// MeasureSimulated estimates the speed-up curve from a sequential
// runtime pool with the Simulate engine: speed-up(n) =
// mean(pool) / mean(Z(n) draws).
func MeasureSimulated(pool []float64, cores []int, reps int, seed uint64) ([]SpeedupPoint, error) {
	if reps < 2 {
		return nil, fmt.Errorf("multiwalk: reps=%d too small", reps)
	}
	// Sort once (inside NewEmpirical); every core count reuses the
	// sorted pool.
	e, err := dist.NewEmpirical(pool)
	if err != nil {
		return nil, fmt.Errorf("multiwalk: runtime pool: %w", err)
	}
	seqMean := e.Mean()
	if !(seqMean > 0) {
		return nil, errors.New("multiwalk: non-positive sequential mean")
	}
	zs := make([]float64, reps)
	points := make([]SpeedupPoint, len(cores))
	for i, n := range cores {
		if n < 1 {
			return nil, fmt.Errorf("multiwalk: n=%d", n)
		}
		r := xrand.New(seed + uint64(i)*0x9e3779b9)
		for k := range zs {
			zs[k] = e.MinSample(n, r)
		}
		m := stats.Mean(zs)
		points[i] = SpeedupPoint{
			Cores:     n,
			Speedup:   seqMean / m,
			MeanZ:     m,
			Reps:      reps,
			StdErr:    stats.StdDev(zs) / math.Sqrt(float64(reps)),
			Simulated: true,
		}
	}
	return points, nil
}

// MeasureReal estimates the speed-up curve by actually running the
// multi-walk engine reps times per core count. seqMean is the mean
// sequential runtime (iterations) the speed-up is measured against.
func MeasureReal(ctx context.Context, runner Runner, seqMean float64, cores []int, reps int, seed uint64) ([]SpeedupPoint, error) {
	if !(seqMean > 0) {
		return nil, errors.New("multiwalk: non-positive sequential mean")
	}
	if reps < 1 {
		return nil, fmt.Errorf("multiwalk: reps=%d", reps)
	}
	points := make([]SpeedupPoint, len(cores))
	for i, n := range cores {
		zs := make([]float64, 0, reps)
		for k := 0; k < reps; k++ {
			out, err := Run(ctx, runner, Options{Walkers: n, Seed: seed + uint64(k)*65537 + uint64(n)})
			if err != nil {
				return nil, fmt.Errorf("multiwalk: cores=%d rep=%d: %w", n, k, err)
			}
			zs = append(zs, float64(out.Iterations))
		}
		m := stats.Mean(zs)
		se := 0.0
		if len(zs) > 1 {
			se = stats.StdDev(zs) / math.Sqrt(float64(len(zs)))
		}
		points[i] = SpeedupPoint{Cores: n, Speedup: seqMean / m, MeanZ: m, Reps: reps, StdErr: se}
	}
	return points, nil
}
