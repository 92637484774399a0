package serve

import (
	"context"
	"errors"
	"math"
	"net/http"

	"lasvegas"
	"lasvegas/internal/store"
)

// policyRowResponse is one ranked strategy on the /v1/policy wire.
// Non-finite numbers cannot ride JSON, so +Inf cutoffs become
// never_restart=true with the cutoff omitted, and +Inf prices/bounds
// are omitted the same way (an absent expected with a present row
// means "this schedule cannot succeed on this law").
type policyRowResponse struct {
	Policy       string   `json:"policy"`
	Cutoff       *float64 `json:"cutoff,omitempty"`
	NeverRestart bool     `json:"never_restart,omitempty"`
	Unit         *float64 `json:"unit,omitempty"`
	Expected     *float64 `json:"expected,omitempty"`
	Simulated    float64  `json:"simulated"`
	SimStdErr    float64  `json:"sim_stderr"`
	CILo         *float64 `json:"ci_lo,omitempty"`
	CIHi         *float64 `json:"ci_hi,omitempty"`
	Gain         float64  `json:"gain"`
}

// policyResponse is the GET /v1/policy body: the ranked policy table
// for one stored campaign.
type policyResponse struct {
	ID        string              `json:"id"`
	Problem   string              `json:"problem"`
	Law       string              `json:"law"`
	Estimator string              `json:"estimator,omitempty"`
	Level     float64             `json:"level"`
	Reps      int                 `json:"reps"`
	Resamples int                 `json:"resamples"`
	Winner    string              `json:"winner"`
	Policies  []policyRowResponse `json:"policies"`
}

// finitePtr renders v for the wire: nil when it cannot ride JSON.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// handlePolicy answers GET /v1/policy?id=...: the ranked restart-
// policy table (no-restart / fixed-cutoff / Luby / fitted-optimal)
// for a stored campaign, each row priced in closed form under the
// fitted law and validated by a seeded replay plus a bootstrap CI on
// the campaign's own plug-in law. Owner-routed like every read; the
// rendered body caches in the entry's PolicyView cell, so one
// campaign costs one table per replica.
func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	e, _ := s.ownedRead(w, r, "policy", r.URL.Query().Get("id"), nil)
	if e == nil {
		return
	}
	v, computed, err := e.PolicyView.Do(func() (store.Rendered, error) {
		return s.policyView(r.Context(), e)
	})
	switch {
	case err != nil:
		s.met.policyComputes.With("error").Inc()
	case computed:
		s.met.policyComputes.With("computed").Inc()
	default:
		s.met.policyComputes.With("cached").Inc()
	}
	s.writeView(w, v, err)
}

// policyView renders the policy table body for an entry, the compute
// of its PolicyView cell. Like predict, the table is computed where
// the model lives (models do not round-trip the wire), on the entry's
// local fit. The replay and bootstrap claim a gate slot of their own —
// they are the same order of work as a fit and must not stampede past
// the worker bound.
func (s *Server) policyView(ctx context.Context, e *store.Entry) (store.Rendered, error) {
	cands, err := s.fit(ctx, e)
	if err != nil && !errors.Is(err, lasvegas.ErrNoAcceptableFit) {
		return store.Rendered{}, err
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return store.Rendered{}, err
	}
	defer s.gate.Release()
	// best(nil) == nil (no family accepted) makes PolicyTable fall
	// back to the plug-in law internally.
	table, err := s.pred.PolicyTable(ctx, e.Campaign, best(cands))
	if err != nil {
		return store.Rendered{}, err
	}
	resp := policyResponse{
		ID:        e.ID,
		Problem:   e.Campaign.Problem,
		Law:       table.Law,
		Estimator: table.Estimator,
		Level:     table.Level,
		Reps:      table.Reps,
		Resamples: table.Resamples,
		Winner:    table.Winner,
	}
	for _, row := range table.Rows {
		rr := policyRowResponse{
			Policy:    row.Policy,
			Expected:  finitePtr(row.Expected),
			Simulated: row.Simulated,
			SimStdErr: row.StdErr,
			CILo:      finitePtr(row.Lo),
			CIHi:      finitePtr(row.Hi),
			Gain:      row.Gain,
		}
		switch {
		case row.Unit > 0:
			rr.Unit = finitePtr(row.Unit)
		case math.IsInf(row.Cutoff, 1):
			rr.NeverRestart = true
		case row.Cutoff > 0:
			rr.Cutoff = finitePtr(row.Cutoff)
		default:
			// no-restart: no parameter at all.
			rr.NeverRestart = row.Policy == lasvegas.PolicyNoRestart
		}
		resp.Policies = append(resp.Policies, rr)
	}
	return renderJSON(http.StatusOK, resp), nil
}
