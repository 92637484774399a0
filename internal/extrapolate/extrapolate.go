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
			results, err := fit.Auto(o.Sample, fam)
			if err != nil || results[0].Err != nil {
				ok = false
				break
			}
			r := results[0]
			if r.KS.RejectAt(alpha) {
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

// paramsOf extracts the regressable parameters of a fitted law.
func paramsOf(family fit.Family, d dist.Dist) ([]trend, []float64, error) {
	switch family {
	case fit.FamShiftedExponential, fit.FamExponential:
		se, ok := d.(dist.ShiftedExponential)
		if !ok {
			return nil, nil, fmt.Errorf("extrapolate: %T is not a shifted exponential", d)
		}
		// Regress the mean excess 1/λ in log space (exponential growth
		// with size) and the shift in log1p space.
		return []trend{
				{name: "scale", logSpace: true},
				{name: "shift", logSpace: true},
			}, []float64{
				math.Log(1 / se.Rate),
				math.Log1p(se.Shift),
			}, nil
	case fit.FamLogNormal:
		ln, ok := d.(dist.LogNormal)
		if !ok {
			return nil, nil, fmt.Errorf("extrapolate: %T is not a lognormal", d)
		}
		// μ is already a log-scale quantity: regress linearly. σ and
		// the shift regress linearly and in log1p space respectively.
		return []trend{
				{name: "mu"},
				{name: "sigma"},
				{name: "shift", logSpace: true},
			}, []float64{
				ln.Mu,
				ln.Sigma,
				math.Log1p(ln.Shift),
			}, nil
	}
	return nil, nil, fmt.Errorf("extrapolate: unsupported family %q", family)
}

func (m *Model) buildTrends() error {
	shapes, _, err := paramsOf(m.Family, m.Fits[0].Dist)
	if err != nil {
		return err
	}
	sizes := make([]float64, len(m.Fits))
	values := make([][]float64, len(shapes))
	for i := range values {
		values[i] = make([]float64, len(m.Fits))
	}
	for j, sf := range m.Fits {
		sizes[j] = float64(sf.Size)
		_, vals, err := paramsOf(m.Family, sf.Dist)
		if err != nil {
			return err
		}
		for i, v := range vals {
			values[i][j] = v
		}
	}
	m.trends = make([]trend, len(shapes))
	for i, shape := range shapes {
		slope, intercept, err := stats.LinearFit(sizes, values[i])
		if err != nil {
			return fmt.Errorf("extrapolate: trend %q: %w", shape.name, err)
		}
		m.trends[i] = trend{name: shape.name, slope: slope, intercept: intercept, logSpace: shape.logSpace}
	}
	return nil
}

// DistAt evaluates the learned trends at the target size and returns
// the extrapolated runtime distribution.
func (m *Model) DistAt(size int) (dist.Dist, error) {
	if size < 1 {
		return nil, fmt.Errorf("extrapolate: size %d", size)
	}
	s := float64(size)
	switch m.Family {
	case fit.FamShiftedExponential, fit.FamExponential:
		scale := m.trendValue("scale", s)
		shift := m.trendValue("shift", s) - 1 // undo log1p's +1
		if shift < 0 {
			shift = 0
		}
		if !(scale > 0) {
			return nil, fmt.Errorf("extrapolate: non-positive scale at size %d", size)
		}
		return dist.NewShiftedExponential(shift, 1/scale)
	case fit.FamLogNormal:
		mu := m.trendValue("mu", s)
		sigma := m.trendValue("sigma", s)
		shift := m.trendValue("shift", s) - 1
		if shift < 0 {
			shift = 0
		}
		if !(sigma > 0) {
			// σ trends can cross zero when extrapolating far; clamp to
			// the smallest observed σ rather than failing.
			sigma = m.smallestSigma()
		}
		return dist.NewLogNormal(shift, mu, sigma)
	}
	return nil, fmt.Errorf("extrapolate: unsupported family %q", m.Family)
}

func (m *Model) trendValue(name string, size float64) float64 {
	for _, t := range m.trends {
		if t.name == name {
			if t.logSpace {
				return t.at(size) // already exponentiated
			}
			return t.at(size)
		}
	}
	return math.NaN()
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
