package serve

// Cross-replica fit single-flight: k owners of a campaign should burn
// at most one fit between them, not one each.
//
// In-process, Entry.Fit already collapses a thundering herd onto one
// computation. Across replicas there was no such collapse: a herd of
// /v1/fit requests spread over the k owners fitted the same campaign
// k times. Now an owner that has no finished fit first probes the
// other owners' fit caches (GET /v1/internal/fit-cache — strictly
// local, never computes) and adopts a finished rendering; if nobody
// has one, every owner except the id's primary delegates the fit to
// the primary (marked with fitDelegateHeader so the primary computes
// rather than delegating back), so the whole group converges on one
// computation. Both probe and delegation are themselves single-flight
// per id per process, and a dead primary just means the owner falls
// back to computing locally — sharing is an optimization, never an
// availability dependency.
//
// What is shared is the *rendered response* (status + body), not the
// model: fitted models don't round-trip the wire, and responses are
// rendered deterministically, so an adopted response is byte-identical
// to the one a local fit would have produced. /v1/predict computes
// its queries against the Model itself and therefore always fits
// locally — at most once per owner, which the package doc and
// ARCHITECTURE.md call out as the boundary of the optimization.

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

// adoptedFit is a peer's finished fit response, adopted verbatim: the
// exact status and body bytes the peer rendered, which — rendering
// being deterministic — are the bytes a local fit would produce.
// Adoptable statuses are 200 (a fit) and 422 (a deterministic fit
// failure, itself a cacheable outcome).
type adoptedFit struct {
	status int
	body   []byte
}

// write replays the adopted response.
func (a *adoptedFit) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(a.status)
	w.Write(a.body)
}

// fitShareCall is one in-flight probe/delegate coordination for an
// id; concurrent local callers wait on done and share a.
type fitShareCall struct {
	done chan struct{}
	a    *adoptedFit
}

// sharedFit returns a peer's fit response to serve for e, or nil when
// the caller should fit locally: the entry already holds a finished
// local fit, the id has a single owner, the request is itself a
// delegation, or no peer could supply one (including "this replica is
// the primary and nobody has fitted yet" — then computing locally IS
// the group's single flight).
func (s *Server) sharedFit(ctx context.Context, hdr http.Header, e *store.Entry, owners []int) *adoptedFit {
	if s.replicas < 2 || len(owners) < 2 || hdr.Get(fitDelegateHeader) != "" {
		return nil
	}
	if a, ok := e.AdoptedFit().(*adoptedFit); ok {
		s.met.fitShare.With("adopted").Inc()
		return a
	}
	if _, ok := e.CachedFit(); ok {
		return nil // a finished local fit beats any peer's
	}
	s.fitProbe.Lock()
	if c, ok := s.fitProbing[e.ID]; ok {
		s.fitProbe.Unlock()
		select {
		case <-c.done:
			return c.a
		case <-ctx.Done():
			return nil
		}
	}
	c := &fitShareCall{done: make(chan struct{})}
	s.fitProbing[e.ID] = c
	s.fitProbe.Unlock()
	c.a = s.probeOrDelegate(ctx, e.ID, owners)
	if _, ok := e.CachedFit(); ok {
		// A local fit finished while the probe was out — on the primary,
		// the very fit whose rendering the peers now hold. It beats any
		// peer's copy, and adopting that copy too would count one fit
		// twice.
		c.a = nil
	}
	if c.a != nil {
		e.AdoptFit(c.a)
	}
	s.fitProbe.Lock()
	delete(s.fitProbing, e.ID)
	s.fitProbe.Unlock()
	close(c.done)
	return c.a
}

// probeOrDelegate asks each other owner's fit cache for a finished
// result, then — when nobody has one and this replica is not the id's
// primary owner — delegates the computation to the primary, so that
// however the herd is spread over the owners, exactly one of them
// fits. Returns nil when the caller should compute locally.
func (s *Server) probeOrDelegate(ctx context.Context, id string, owners []int) *adoptedFit {
	for _, o := range owners {
		if o == s.self {
			continue
		}
		if a := s.probeFitCache(ctx, o, id); a != nil {
			s.met.fitShare.With("hit").Inc()
			s.logger.Debug("fit adopted from peer cache",
				"id", id, "peer", o, "trace", obs.Trace(ctx))
			return a
		}
	}
	if owners[0] == s.self {
		s.met.fitShare.With("local").Inc()
		return nil
	}
	a := s.delegateFit(ctx, owners[0], id)
	if a == nil {
		// Primary unreachable (or answered non-deterministically):
		// computing locally keeps the request alive.
		s.met.fitShare.With("local").Inc()
		return nil
	}
	s.met.fitShare.With("delegated").Inc()
	s.logger.Debug("fit delegated to primary owner",
		"id", id, "primary", owners[0], "trace", obs.Trace(ctx))
	return a
}

// probeFitCache asks one peer whether it has a finished fit for id.
// Only a rendered outcome is adopted (200 or 422); a 404 — no cached
// fit — or any failure returns nil. The endpoint never computes, so
// probing is always cheap.
func (s *Server) probeFitCache(ctx context.Context, peer int, id string) *adoptedFit {
	resp, err := s.peerc.do(ctx, peer, s.cfg.PeerTimeout, "GET",
		"/v1/internal/fit-cache?id="+url.QueryEscape(id), nil, nil)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	return adoptResponse(resp, s.cfg.MaxBodyBytes)
}

// delegateFit hands the fit to the id's primary owner and adopts its
// answer. The delegate marker keeps the primary from probing back;
// the forward marker keeps a misconfigured group from looping. A
// failure (primary dead, non-deterministic status) returns nil and
// the caller computes locally — availability over deduplication.
func (s *Server) delegateFit(ctx context.Context, primary int, id string) *adoptedFit {
	body, err := json.Marshal(struct {
		ID string `json:"id"`
	}{id})
	if err != nil {
		return nil
	}
	resp, err := s.peerc.do(ctx, primary, s.cfg.PeerTimeout, "POST", "/v1/fit", body,
		map[string]string{fitDelegateHeader: "1", forwardHeader: "1"})
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	return adoptResponse(resp, s.cfg.MaxBodyBytes)
}

// adoptResponse turns a peer response into an adoptedFit when its
// status marks a finished deterministic outcome.
func adoptResponse(resp *http.Response, maxBytes int64) *adoptedFit {
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes))
	if err != nil {
		return nil
	}
	return &adoptedFit{status: resp.StatusCode, body: body}
}

// handleInternalFitCache serves this replica's cached fit outcome for
// a campaign — the peer-to-peer probe behind cross-replica fit
// single-flight. Strictly local and strictly read-only: an id with no
// finished fit here is a 404, never a computation (the prober decides
// who computes).
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
	out, ok := e.CachedFit()
	if !ok {
		// An adopted rendering is as finished as a computed one.
		if a, ok := e.AdoptedFit().(*adoptedFit); ok {
			a.write(w)
			return
		}
		status := http.StatusNotFound
		s.writeJSON(w, status, errorResponse{Error: "serve: no cached fit for " + id, Status: status})
		return
	}
	if out.Err != nil {
		s.writeError(w, out.Err)
		return
	}
	s.writeFitResponse(w, e, out.Candidates, out.Model)
}
