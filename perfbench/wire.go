package main

// Mirrors of the lvserve wire bodies: the decode side of the answer
// checks, and the render side of the codec.render stage replay.

import (
	"encoding/json"

	"lasvegas"
)

type uploadAck struct {
	ID       string `json:"id"`
	Runs     int    `json:"runs"`
	Sketched bool   `json:"sketched"`
}

type gofBody struct {
	Stat   float64 `json:"stat"`
	PValue float64 `json:"p_value"`
	N      int     `json:"n"`
}

type candidateBody struct {
	Family   lasvegas.Family `json:"family"`
	Law      string          `json:"law,omitempty"`
	Accepted bool            `json:"accepted"`
	KS       *gofBody        `json:"ks,omitempty"`
	AD       *gofBody        `json:"ad,omitempty"`
	Error    string          `json:"error,omitempty"`
}

type fitBody struct {
	ID         string          `json:"id"`
	Problem    string          `json:"problem"`
	Best       *lasvegas.Model `json:"best"`
	Candidates []candidateBody `json:"candidates"`
}

// fitAnswer is the decode side of a /v1/fit body: the best model's
// JSON, compared with the reference fit's.
type fitAnswer struct {
	Best json.RawMessage `json:"best"`
}

type speedupBody struct {
	Cores          int     `json:"cores"`
	Speedup        float64 `json:"speedup"`
	MinExpectation float64 `json:"min_expectation"`
	Efficiency     float64 `json:"efficiency"`
}

type quantileBody struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

type coresBody struct {
	Target float64 `json:"target"`
	Cores  int     `json:"cores"`
}

type predictBody struct {
	ID              string          `json:"id"`
	Problem         string          `json:"problem"`
	Model           *lasvegas.Model `json:"model"`
	Speedups        []speedupBody   `json:"speedups,omitempty"`
	Quantiles       []quantileBody  `json:"quantiles,omitempty"`
	CoresForSpeedup *coresBody      `json:"cores_for_speedup,omitempty"`
}

// predictAnswer is the decode side of a /v1/predict body.
type predictAnswer struct {
	Speedups []speedupBody `json:"speedups"`
}

// policyAnswer is the decode side of a /v1/policy body.
type policyAnswer struct {
	ID       string `json:"id"`
	Winner   string `json:"winner"`
	Policies []struct {
		Policy string `json:"policy"`
	} `json:"policies"`
}

// renderFit renders a fit body the way the daemon does.
func renderFit(id, problem string, cands []lasvegas.Candidate, best *lasvegas.Model, alpha float64) ([]byte, error) {
	b := fitBody{ID: id, Problem: problem, Best: best}
	for _, c := range cands {
		cb := candidateBody{Family: c.Family, Law: c.Law}
		if c.Err != nil {
			cb.Error = c.Err.Error()
		} else {
			cb.Accepted = !c.KS.RejectedAt(alpha)
			cb.KS = &gofBody{Stat: c.KS.Stat, PValue: c.KS.PValue, N: c.KS.N}
			if c.ADValid {
				cb.AD = &gofBody{Stat: c.AD.Stat, PValue: c.AD.PValue, N: c.AD.N}
			}
		}
		b.Candidates = append(b.Candidates, cb)
	}
	return indent(b)
}

func indent(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
