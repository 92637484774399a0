package main

// Input generation. Every input is a pure function of the workload
// seed: the same seed gives byte-identical campaigns, bodies and op
// sequences, so two runs differ only in timing.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strconv"

	"lasvegas"
)

// rng returns the deterministic stream number stream of a seed.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+1))
}

// law names the synthetic runtime laws: the two shapes the paper fits
// (lognormal, like All-Interval and Magic-Square; shifted
// exponential, like Costas).
type law int

const (
	lognormal law = iota
	shiftedExp
)

// shape fixes a synthetic campaign's character: its law, where its
// parameters sit in the law's band (a and b in [0,1)), its run count
// and whether it is censored. Shapes are fixed per workload, so a
// seed changes the samples drawn, not what kind of campaigns they are.
type shape struct {
	l        law
	a, b     float64
	runs     int
	censored bool
}

// spreadShapes returns n shapes whose parameter positions and run
// counts (in [minRuns, maxRuns]) are spread evenly over their bands by
// a low-discrepancy sequence. Laws and censoring are the caller's.
func spreadShapes(n, minRuns, maxRuns int) []shape {
	const phi = 0.6180339887498949
	out := make([]shape, n)
	for k := range out {
		_, b := math.Modf(0.5 + float64(k)*phi)
		_, r := math.Modf(0.25 + float64(k)*phi*phi)
		out[k] = shape{a: (float64(k) + 0.5) / float64(n), b: b, runs: minRuns + int(float64(maxRuns-minRuns)*r)}
	}
	return out
}

// synthCampaign draws one campaign of the shape's iteration counts.
// Lognormal laws have log-mean in [6.5, 7.5) and log-sd in [0.7, 1.0);
// shifted exponentials a shift in [50, 150) and a mean in [500, 1500).
// A censored campaign cuts the runs above the sample's 85th
// percentile at that budget.
func synthCampaign(r *rand.Rand, name string, s shape) *lasvegas.Campaign {
	xs := make([]float64, s.runs)
	switch s.l {
	case lognormal:
		mu, sigma := 6.5+s.a, 0.7+0.3*s.b
		for i := range xs {
			xs[i] = math.Ceil(math.Exp(mu + sigma*r.NormFloat64()))
		}
	case shiftedExp:
		shift, mean := 50+100*s.a, 500+1000*s.b
		for i := range xs {
			xs[i] = math.Ceil(shift + mean*r.ExpFloat64())
		}
	}
	c := &lasvegas.Campaign{Problem: name, Runs: s.runs, Seed: r.Uint64() >> 12, Iterations: xs}
	if s.censored {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		budget := sorted[s.runs*85/100]
		c.Budget = int64(budget)
		for i, x := range xs {
			if x >= budget {
				xs[i] = budget
				c.Censored = append(c.Censored, i)
			}
		}
	}
	return c
}

// fixtures loads the committed Costas campaigns, raw and censored,
// from the checkout rooted at root.
func fixtures(root string) ([]*lasvegas.Campaign, error) {
	var out []*lasvegas.Campaign
	for _, f := range []string{"campaign_costas13.json", "campaign_costas13_censored.json"} {
		c, err := lasvegas.LoadCampaign(filepath.Join(root, "testdata", f))
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", f, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// ndjsonStream is a pre-rendered NDJSON campaign: the records, and a
// header that is rendered per op so each op streams a new campaign.
type ndjsonStream struct {
	records []byte
	runs    int
}

// newNDJSONStream renders the run records of a complete campaign.
func newNDJSONStream(c *lasvegas.Campaign) (*ndjsonStream, error) {
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	nl := bytes.IndexByte(b, '\n')
	return &ndjsonStream{records: b[nl+1:], runs: len(c.Iterations)}, nil
}

// header renders the stream header line for one op's campaign.
func (s *ndjsonStream) header(label string, seed uint64) []byte {
	h := `{"stream":1,"problem":` + strconv.Quote(label) +
		`,"seed":` + strconv.FormatUint(seed, 10) +
		`,"runs":` + strconv.Itoa(s.runs) + "}\n"
	return []byte(h)
}
