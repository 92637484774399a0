// Package extrapolate implements the method proposed in the paper's
// conclusion (§8): predict the parallel speed-up of a *large*
// instance without ever running it, by learning the runtime
// distribution on small instances of the same problem.
//
// The paper's hypothesis: "given a problem and an algorithm, the
// general shape of the distribution is the same when the size of the
// instances varies" (e.g. every ALL-INTERVAL instance they tested was
// shifted exponential). Under that hypothesis the procedure is:
//
//  1. collect sequential campaigns at several small sizes;
//  2. find one distribution family accepted by the KS test at every
//     size (family stability check);
//  3. regress the family's parameters against instance size — scale
//     parameters grow exponentially for NP-hard local search, so
//     scale-like parameters are regressed in log space, location
//     (μ of the lognormal) linearly;
//  4. evaluate the regression at the target size and feed the
//     resulting distribution to the core predictor.
//
// The extrapolation is honest about its assumptions: Learn fails when
// no family is stable, and Model records the per-size fits so callers
// can inspect the trend quality.
package extrapolate

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lasvegas/internal/dist"
	"lasvegas/internal/fit"
	"lasvegas/internal/ks"
	"lasvegas/internal/stats"
)

// ErrNoStableFamily is returned when no candidate family passes the
// KS test at every observed size.
var ErrNoStableFamily = errors.New("extrapolate: no distribution family is stable across sizes")

// Observation pairs an instance size with its sequential runtime
// sample (iteration counts).
type Observation struct {
	Size   int
	Sample []float64
}

// SizeFit records the accepted fit at one size.
type SizeFit struct {
	Size int
	Dist dist.Dist
	KS   ks.Result
}

// trend is one regressed parameter curve.
type trend struct {
	name      string
	slope     float64
	intercept float64
	logSpace  bool // regression done on log(value)
}

func (t trend) at(size float64) float64 {
	v := t.intercept + t.slope*size
	if t.logSpace {
		return math.Exp(v)
	}
	return v
}

// Model is a learned family + parameter trends, usable at any size.
type Model struct {
	Family fit.Family
	Fits   []SizeFit
	trends []trend
}

// candidate families, in the paper's order of preference.
var candidates = []fit.Family{fit.FamShiftedExponential, fit.FamExponential, fit.FamLogNormal}

// Learn fits every candidate family at every size and keeps the
// family with the best worst-case KS p-value, provided it is accepted
// (p ≥ alpha) everywhere. At least two distinct sizes are required
// (three or more give a meaningful trend).
func Learn(obs []Observation, alpha float64) (*Model, error) {
	if len(obs) < 2 {
		return nil, errors.New("extrapolate: need at least two sizes")
	}
	sorted := append([]Observation(nil), obs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Size < sorted[j].Size })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Size == sorted[i-1].Size {
			return nil, fmt.Errorf("extrapolate: duplicate size %d", sorted[i].Size)
		}
	}

	type familyFits struct {
		family fit.Family
		fits   []SizeFit
		minP   float64
	}
	var best *familyFits
	for _, fam := range candidates {
		ff := familyFits{family: fam, minP: math.Inf(1)}
		ok := true
		for _, o := range sorted {
			r := fit.One(o.Sample, fam)
			if r.Err != nil || r.KS.RejectAt(alpha) {
				ok = false
				break
			}
			ff.fits = append(ff.fits, SizeFit{Size: o.Size, Dist: r.Dist, KS: r.KS})
			ff.minP = math.Min(ff.minP, r.KS.PValue)
		}
		if !ok {
			continue
		}
		if best == nil || ff.minP > best.minP {
			f := ff
			best = &f
		}
	}
	if best == nil {
		return nil, ErrNoStableFamily
	}
	m := &Model{Family: best.family, Fits: best.fits}
	if err := m.buildTrends(); err != nil {
		return nil, err
	}
	return m, nil
}

// shape is one learnable family: the parameters regressed against
// size, how to read them off a fitted law, and how to rebuild the law
// from their trend values (in trends order) at a size.
type shape struct {
	trends []trend
	params func(dist.Dist) ([]float64, error)
	law    func(m *Model, size int, v []float64) (dist.Dist, error)
}

// shapes maps every candidate family onto its shape.
var shapes = map[fit.Family]shape{
	fit.FamShiftedExponential: exponentialShape,
	fit.FamExponential:        exponentialShape,
	fit.FamLogNormal:          logNormalShape,
}

// exponentialShape regresses the mean excess 1/λ in log space
// (exponential growth with size) and the shift in log1p space.
var exponentialShape = shape{
	trends: []trend{{name: "scale", logSpace: true}, {name: "shift", logSpace: true}},
	params: func(d dist.Dist) ([]float64, error) {
		se, ok := d.(dist.ShiftedExponential)
		if !ok {
			return nil, fmt.Errorf("extrapolate: %T is not a shifted exponential", d)
		}
		return []float64{math.Log(1 / se.Rate), math.Log1p(se.Shift)}, nil
	},
	law: func(_ *Model, size int, v []float64) (dist.Dist, error) {
		scale, shift := v[0], unshift(v[1])
		if !(scale > 0) {
			return nil, fmt.Errorf("extrapolate: non-positive scale at size %d", size)
		}
		return dist.NewShiftedExponential(shift, 1/scale)
	},
}

// logNormalShape regresses μ, already a log-scale quantity, and σ
// linearly, and the shift in log1p space.
var logNormalShape = shape{
	trends: []trend{{name: "mu"}, {name: "sigma"}, {name: "shift", logSpace: true}},
	params: func(d dist.Dist) ([]float64, error) {
		ln, ok := d.(dist.LogNormal)
		if !ok {
			return nil, fmt.Errorf("extrapolate: %T is not a lognormal", d)
		}
		return []float64{ln.Mu, ln.Sigma, math.Log1p(ln.Shift)}, nil
	},
	law: func(m *Model, _ int, v []float64) (dist.Dist, error) {
		mu, sigma, shift := v[0], v[1], unshift(v[2])
		if !(sigma > 0) {
			// σ trends can cross zero when extrapolating far; clamp to
			// the smallest observed σ rather than failing.
			sigma = m.smallestSigma()
		}
		return dist.NewLogNormal(shift, mu, sigma)
	},
}

// unshift undoes the log1p regression's +1 of a shift, clamped at 0.
func unshift(v float64) float64 {
	if shift := v - 1; !(shift < 0) {
		return shift
	}
	return 0
}

func (m *Model) buildTrends() error {
	sh, ok := shapes[m.Family]
	if !ok {
		return fmt.Errorf("extrapolate: unsupported family %q", m.Family)
	}
	sizes := make([]float64, len(m.Fits))
	values := make([][]float64, len(sh.trends))
	for i := range values {
		values[i] = make([]float64, len(m.Fits))
	}
	for j, sf := range m.Fits {
		sizes[j] = float64(sf.Size)
		vals, err := sh.params(sf.Dist)
		if err != nil {
			return err
		}
		for i, v := range vals {
			values[i][j] = v
		}
	}
	m.trends = make([]trend, len(sh.trends))
	for i, t := range sh.trends {
		slope, intercept, err := stats.LinearFit(sizes, values[i])
		if err != nil {
			return fmt.Errorf("extrapolate: trend %q: %w", t.name, err)
		}
		m.trends[i] = trend{name: t.name, slope: slope, intercept: intercept, logSpace: t.logSpace}
	}
	return nil
}

// DistAt evaluates the learned trends at the target size and returns
// the extrapolated runtime distribution.
func (m *Model) DistAt(size int) (dist.Dist, error) {
	if size < 1 {
		return nil, fmt.Errorf("extrapolate: size %d", size)
	}
	sh, ok := shapes[m.Family]
	if !ok {
		return nil, fmt.Errorf("extrapolate: unsupported family %q", m.Family)
	}
	v := make([]float64, len(m.trends))
	for i, t := range m.trends {
		v[i] = t.at(float64(size))
	}
	return sh.law(m, size, v)
}

func (m *Model) smallestSigma() float64 {
	s := math.Inf(1)
	for _, sf := range m.Fits {
		if ln, ok := sf.Dist.(dist.LogNormal); ok && ln.Sigma < s {
			s = ln.Sigma
		}
	}
	if math.IsInf(s, 1) {
		return 1
	}
	return s
}

// MinPValue returns the weakest per-size KS p-value of the stable
// family — a quality indicator for the extrapolation.
func (m *Model) MinPValue() float64 {
	p := math.Inf(1)
	for _, sf := range m.Fits {
		p = math.Min(p, sf.KS.PValue)
	}
	return p
}
