package serve

// Cross-replica fit single-flight: k owners of a campaign should burn
// at most one fit between them, not one each.
//
// In-process, the entry's cells already collapse a thundering herd
// onto one computation. Across replicas the collapse is the compute of
// the entry's FitView cell, which renders the /v1/fit body from the
// first of:
//
//  1. a finished local fit (a /v1/predict or /v1/policy may have run
//     one);
//  2. a finished rendering on another owner, found by probing its fit
//     cache (GET /v1/internal/fit-cache — strictly local, never
//     computes);
//  3. the id's primary owner, to which every other owner delegates the
//     fit (marked with fitDelegateHeader, so the primary computes
//     rather than probing or delegating back);
//  4. a fit of its own.
//
// However a herd is spread over the owners, the group converges on one
// computation. A dead primary only means falling through to step 4:
// sharing is an optimization, never an availability dependency.
//
// What is shared is the rendered response (status + body), not the
// model: fitted models don't round-trip the wire, and responses are
// rendered deterministically, so an adopted response is byte-identical
// to the one a local fit would have produced. /v1/predict and
// /v1/policy compute against the Model itself and therefore always fit
// locally, at most once per owner.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"

	"lasvegas/internal/obs"
	"lasvegas/internal/store"
)

// fitDelegateHeader marks a fit delegated by a secondary owner to the
// id's primary owner: the receiver must compute (or serve its cache),
// never probe or delegate again — the sender is already coordinating.
const fitDelegateHeader = "Lvserve-Fit-Delegate"

// fitView renders e's /v1/fit body, the compute of its FitView cell.
// share is false when no other owner can help: the id has one owner,
// or the request is itself a delegation.
func (s *Server) fitView(ctx context.Context, e *store.Entry, owners []int, share bool) (store.Rendered, error) {
	if _, done, _ := e.Fit.Peek(); share && !done {
		if v, ok := s.shareFit(ctx, e.ID, owners); ok {
			return v, nil
		}
	}
	cands, err := s.fit(ctx, e)
	if err != nil {
		return store.Rendered{}, err
	}
	return s.renderFit(e, cands), nil
}

// shareFit asks each other owner's fit cache for a finished rendering
// and then, when nobody has one and this replica is not the id's
// primary owner, delegates the fit to the primary. ok is false when
// the caller should fit locally: this replica is the primary (then
// its fit IS the group's single flight), or the primary is
// unreachable.
func (s *Server) shareFit(ctx context.Context, id string, owners []int) (v store.Rendered, ok bool) {
	for _, o := range owners {
		if o == s.self {
			continue
		}
		if v, ok := s.adopt(ctx, o, "GET", "/v1/internal/fit-cache?id="+url.QueryEscape(id), nil, nil); ok {
			s.met.fitShare.With("hit").Inc()
			s.logger.Debug("fit adopted from peer cache",
				"id", id, "peer", o, "trace", obs.Trace(ctx))
			return v, true
		}
	}
	if owners[0] != s.self {
		// The delegate marker keeps the primary from probing back; the
		// forward marker keeps a misconfigured group from looping.
		body, _ := json.Marshal(struct {
			ID string `json:"id"`
		}{id})
		if v, ok := s.adopt(ctx, owners[0], "POST", "/v1/fit", body,
			map[string]string{fitDelegateHeader: "1", forwardHeader: "1"}); ok {
			s.met.fitShare.With("delegated").Inc()
			s.logger.Debug("fit delegated to primary owner",
				"id", id, "primary", owners[0], "trace", obs.Trace(ctx))
			return v, true
		}
	}
	s.met.fitShare.With("local").Inc()
	return store.Rendered{}, false
}

// adopt makes one peer call and adopts its answer when the status
// marks a finished deterministic outcome: 200 (a fit) or 422 (a fit
// failure, itself a cacheable outcome). Anything else — a 404 from a
// fit cache with nothing finished, a dead peer — is not ok.
func (s *Server) adopt(ctx context.Context, peer int, method, path string, body []byte, hdr map[string]string) (store.Rendered, bool) {
	resp, err := s.peerc.do(ctx, peer, s.cfg.PeerTimeout, method, path, body, hdr)
	if err != nil {
		return store.Rendered{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		io.Copy(io.Discard, resp.Body)
		return store.Rendered{}, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return store.Rendered{}, false
	}
	return store.Rendered{Status: resp.StatusCode, Body: data, Adopted: true}, true
}

// handleInternalFitCache serves this replica's finished fit outcome
// for a campaign — the peer-to-peer probe behind cross-replica fit
// single-flight. Strictly local and strictly read-only: it peeks the
// rendered body, then the local fit, and an id with neither finished
// here is a 404, never a computation (the prober decides who
// computes).
func (s *Server) handleInternalFitCache(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeError(w, errors.New("serve: internal fit-cache: missing id parameter"))
		return
	}
	e, err := s.store.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if v, done, err := e.FitView.Peek(); done {
		s.writeView(w, v, err)
		return
	}
	cands, done, err := e.Fit.Peek()
	switch {
	case !done:
		status := http.StatusNotFound
		s.writeJSON(w, status, errorResponse{Error: "serve: no cached fit for " + id, Status: status})
	case err != nil:
		s.writeError(w, err)
	default:
		s.writeView(w, s.renderFit(e, cands), nil)
	}
}
