package main

// The two workloads served by the two-replica group: read-mostly and
// ndjson-stream. Each op checks its answers; a traced op then replays
// the layer functions its handlers ran.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lasvegas"
	"lasvegas/internal/store"
)

// alpha is the daemon's default KS level, which the reference
// predictor matches.
const alpha = 0.05

// served is what the served workloads share: the group, the
// reference predictor the answers are checked against, and one
// durable scratch store per replica for the store.* stage replays, as
// large as the replicas' stores so that it evicts as they do.
type served struct {
	g       *group
	seed    uint64
	ref     *lasvegas.Predictor
	scratch [replicas]store.Store
}

// newServed boots the group and the scratch stores.
func newServed(e env) (*served, error) {
	g, err := newGroup(e.work, e.tr)
	if err != nil {
		return nil, err
	}
	s := &served{g: g, seed: e.seed, ref: lasvegas.New(lasvegas.WithAlpha(alpha), lasvegas.WithCensoredFit(true))}
	for i := range s.scratch {
		if s.scratch[i], err = store.Open(filepath.Join(g.dir, fmt.Sprintf("scratch%d", i)), storeCampaigns); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *served) counters() (map[string]float64, error) { return s.g.counters() }

func (s *served) close() error {
	for _, d := range s.scratch {
		if d != nil {
			d.Close()
		}
	}
	return s.g.close()
}

func traceID(i int) string { return "lvb-" + strconv.Itoa(i) }

// reference is the expected outcome of fitting one campaign.
type reference struct {
	cands  []lasvegas.Candidate
	model  *lasvegas.Model // nil when no family is accepted
	status int             // 200, or 422 when no family is accepted
	best   []byte          // the best model's JSON
}

func (s *served) reference(c *lasvegas.Campaign) (*reference, error) {
	cands, err := s.ref.FitAll(c)
	if err != nil {
		return nil, err
	}
	r := &reference{cands: cands, status: http.StatusOK}
	m, err := s.ref.Fit(c)
	switch {
	case errors.Is(err, lasvegas.ErrNoAcceptableFit):
		r.status = http.StatusUnprocessableEntity
		return r, nil
	case err != nil:
		return nil, err
	}
	r.model = m
	r.best, err = json.Marshal(m)
	return r, err
}

// checkFit checks a /v1/fit answer against the reference: the status,
// and for a fit the best model, byte for byte.
func (r *reference) checkFit(status int, body []byte) error {
	if status != r.status {
		return fmt.Errorf("fit: status %d, want %d: %.200s", status, r.status, body)
	}
	if status != http.StatusOK {
		return nil
	}
	var a fitAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, a.Best); err != nil {
		return fmt.Errorf("fit: best: %w", err)
	}
	if !bytes.Equal(got.Bytes(), r.best) {
		return fmt.Errorf("fit: best model %s, want %s", got.Bytes(), r.best)
	}
	return nil
}

// upload stores a campaign body on replica r and returns its ack.
func (s *served) upload(r int, trace string, body io.Reader, hdr map[string]string) (uploadAck, error) {
	var ack uploadAck
	status, resp := s.g.call(r, "POST", "/v1/campaigns", trace, body, hdr)
	if status != http.StatusOK {
		return ack, fmt.Errorf("upload on replica %d: status %d: %.200s", r, status, resp)
	}
	err := json.Unmarshal(resp, &ack)
	return ack, err
}

func fitRequest(id string) io.Reader { return strings.NewReader(`{"id":"` + id + `"}`) }

// replayStore replays what storing a campaign body runs on replica
// r: decode, canonical encode, append to the store. hop marks the
// replica that received the body as a replication hop.
func (s *served) replayStore(tr *tracer, trace string, r int, body []byte, hop bool) (*lasvegas.Campaign, string, []byte, error) {
	c := &lasvegas.Campaign{}
	if err := tr.stage(trace, "codec.decode_ms", hop, func() error { return json.Unmarshal(body, c) }); err != nil {
		return nil, "", nil, err
	}
	return s.replayEncode(tr, trace, r, c, hop)
}

func (s *served) replayEncode(tr *tracer, trace string, r int, c *lasvegas.Campaign, hop bool) (*lasvegas.Campaign, string, []byte, error) {
	var id string
	var data []byte
	err := tr.stage(trace, "store.encode_ms", hop, func() (err error) {
		id, data, err = store.Encode(c)
		return err
	})
	if err == nil {
		err = tr.stage(trace, "store.append_ms", hop, func() error {
			_, err := s.scratch[r].AddEncoded(id, data, c)
			return err
		})
	}
	return c, id, data, err
}

func (s *served) replayGet(tr *tracer, trace string, r int, id string) error {
	return tr.stage(trace, "store.get_ms", false, func() error {
		_, err := s.scratch[r].Get(id)
		return err
	})
}

// replayColdFit replays the cold /v1/fit on replica b of a campaign
// just stored on both replicas: the get, then the fit and its render,
// which run on b when b is the id's primary owner and inside the
// delegation hop to the primary otherwise. It checks the replayed
// render against the served body, and returns whether b adopted the
// fit rather than computing it.
func (s *served) replayColdFit(tr *tracer, trace string, b int, c *lasvegas.Campaign, id string, status int, body []byte) (adopted bool, model *lasvegas.Model, err error) {
	if err := s.replayGet(tr, trace, b, id); err != nil {
		return false, nil, err
	}
	adopted = store.Owners(id, replicas, replicas)[0] != b
	var cands []lasvegas.Candidate
	if err := tr.stage(trace, "fit.ms", adopted, func() (err error) {
		cands, err = s.ref.FitAll(c)
		return err
	}); err != nil {
		return false, nil, err
	}
	model = firstAccepted(cands)
	if status != http.StatusOK {
		return adopted, model, nil
	}
	var out []byte
	err = tr.stage(trace, "codec.render_ms", adopted, func() (err error) {
		out, err = renderFit(id, c.Problem, cands, model, alpha)
		return err
	})
	if err == nil && !bytes.Equal(out, body) {
		err = fmt.Errorf("stage replay: rendered fit body differs from the served one")
	}
	return adopted, model, err
}

// firstAccepted is the daemon's model selection over a ranked table.
func firstAccepted(cands []lasvegas.Candidate) *lasvegas.Model {
	for _, c := range cands {
		if c.Err == nil && c.Model != nil && c.Model.Accepted() {
			return c.Model
		}
	}
	return nil
}

// --- read-mostly ---------------------------------------------------

// member is one campaign of the read-mostly working set, with the
// answers every replica must give for it.
type member struct {
	c      *lasvegas.Campaign
	id     string
	upload []byte
	ref    *reference
	fit    []byte           // the warm /v1/fit body, identical on both replicas
	policy [replicas][]byte // the warm /v1/policy body per replica
	want   []float64        // reference speed-up at each paperGrid core count
	target float64          // cores-for-speedup target (0 = none)
	url    string           // the /v1/predict query
}

// gridQuery is paperGrid as a cores= parameter. Every predict asks for
// the whole grid, so an op's cost depends on its campaign alone.
const gridQuery = "1,2,4,8,16,32,64,128,256"

var quantiles = []float64{0.5, 0.9}

type readMostly struct {
	*served
	set      []*member
	policies int // set[:policies] have warm policy tables
}

// policyMembers is how many campaigns of the working set /v1/policy
// ops ask about. A cold table costs tens of ms, so warming it for the
// whole set would dominate set-up.
const policyMembers = 6

// setupReadMostly builds the working set (the Costas fixtures plus
// lognormal and shifted-exponential campaigns, some censored), seeds
// it on the group, warms fits, predicts and policies on both
// replicas, and runs a warm-up pass of the mix.
func setupReadMostly(e env) (instance, error) {
	s, err := newServed(e)
	if err != nil {
		return nil, err
	}
	w := &readMostly{served: s}
	if err := w.seedSet(e); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < e.size(400, 20); i++ {
		if _, err := w.do(i, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return w, nil
}

func (w *readMostly) seedSet(e env) error {
	cs, err := fixtures(e.root)
	if err != nil {
		return err
	}
	r := rng(e.seed, 1)
	for k, sh := range spreadShapes(e.size(24, 3), 200, 650) {
		sh.l, sh.censored = lognormal, k%4 == 3
		cs = append(cs, synthCampaign(r, fmt.Sprintf("ln-%d", k), sh))
	}
	for k, sh := range spreadShapes(e.size(6, 1), 200, 650) {
		sh.l, sh.censored = shiftedExp, k%3 == 2
		cs = append(cs, synthCampaign(r, fmt.Sprintf("sexp-%d", k), sh))
	}
	for j, c := range cs {
		m := &member{c: c}
		if m.upload, err = json.Marshal(c); err != nil {
			return err
		}
		var data []byte
		if m.id, data, err = store.Encode(c); err != nil {
			return err
		}
		if m.ref, err = w.reference(c); err != nil {
			return fmt.Errorf("%s: reference fit: %w", c.Problem, err)
		}
		ack, err := w.upload(j%replicas, "lvb-seed", bytes.NewReader(m.upload), nil)
		if err != nil {
			return err
		}
		if ack.ID != m.id {
			return fmt.Errorf("%s: upload id %s, want %s", c.Problem, ack.ID, m.id)
		}
		for _, d := range w.scratch {
			if _, err := d.AddEncoded(m.id, data, c); err != nil {
				return err
			}
		}
		w.set = append(w.set, m)
	}
	w.policies = min(policyMembers, len(w.set))
	for j, m := range w.set {
		if err := w.warm(m, j < w.policies); err != nil {
			return fmt.Errorf("%s: %w", m.c.Problem, err)
		}
	}
	return nil
}

// warm fits and predicts m on both replicas, checking that both
// render the same fit body, and builds m's predict queries with their
// reference answers. With policy set it also warms m's policy table.
func (w *readMostly) warm(m *member, policy bool) error {
	for r := 0; r < replicas; r++ {
		status, body := w.g.call(r, "POST", "/v1/fit", "lvb-seed", fitRequest(m.id), nil)
		if err := m.ref.checkFit(status, body); err != nil {
			return fmt.Errorf("replica %d: %w", r, err)
		}
		if r == 0 {
			m.fit = body
		} else if !bytes.Equal(body, m.fit) {
			return fmt.Errorf("/v1/fit bodies differ between replicas")
		}
	}
	m.url = "/v1/predict?id=" + url.QueryEscape(m.id) + "&cores=" + gridQuery + "&quantile=0.5,0.9"
	if m.ref.model != nil {
		if _, err := m.ref.model.CoresForSpeedup(2); err == nil {
			m.target = 2
			m.url += "&target=2"
		}
		for _, n := range paperGrid {
			g, err := m.ref.model.Speedup(n)
			if err != nil {
				return err
			}
			m.want = append(m.want, g)
		}
	}
	for r := 0; r < replicas; r++ {
		if err := w.checkPredict(m, w.predict(r, m, "lvb-seed")); err != nil {
			return fmt.Errorf("replica %d: %w", r, err)
		}
		if !policy {
			continue
		}
		status, body := w.g.call(r, "GET", "/v1/policy?id="+url.QueryEscape(m.id), "lvb-seed", nil, nil)
		if status != http.StatusOK {
			return fmt.Errorf("replica %d: policy: status %d: %.200s", r, status, body)
		}
		m.policy[r] = body
	}
	return nil
}

type answer struct {
	status int
	body   []byte
}

func (w *readMostly) predict(r int, m *member, trace string) answer {
	status, body := w.g.call(r, "GET", m.url, trace, nil, nil)
	return answer{status, body}
}

// checkPredict checks a /v1/predict answer: the status the reference
// fit implies and, for a prediction, every speed-up equal to the
// reference model's Speedup(n).
func (w *readMostly) checkPredict(m *member, a answer) error {
	if a.status != m.ref.status {
		return fmt.Errorf("predict: status %d, want %d: %.200s", a.status, m.ref.status, a.body)
	}
	if a.status != http.StatusOK {
		return nil
	}
	var p predictAnswer
	if err := json.Unmarshal(a.body, &p); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	if len(p.Speedups) != len(paperGrid) {
		return fmt.Errorf("predict: %d speed-ups, want %d", len(p.Speedups), len(paperGrid))
	}
	for k, sp := range p.Speedups {
		if sp.Cores != paperGrid[k] || sp.Speedup != m.want[k] {
			return fmt.Errorf("predict: speed-up %v at %d cores, want %v at %d", sp.Speedup, sp.Cores, m.want[k], paperGrid[k])
		}
	}
	return nil
}

// do runs op i of the mix: ~90% predicts, ~2.5% warm fits, ~2.5%
// warm policy tables, ~5% idempotent re-uploads, alternating
// replicas. Every fit and policy body and one predict in four is
// checked; a traced predict's replay checks its whole body.
func (w *readMostly) do(i int, tr *tracer) (time.Duration, error) {
	r := rng(w.seed, uint64(i)+1<<32)
	m := w.set[r.IntN(len(w.set))]
	rep := i % replicas
	trace := traceID(i)
	u := r.Float64()
	t0 := time.Now()
	switch {
	case u < 0.90:
		a := w.predict(rep, m, trace)
		lat := time.Since(t0)
		tr.op(trace, t0, t0.Add(lat))
		if i%4 == 0 {
			if err := w.checkPredict(m, a); err != nil {
				return lat, err
			}
		}
		return lat, tr.replay(func() error { return w.replayPredict(tr, trace, rep, m, a) })
	case u < 0.925:
		status, body := w.g.call(rep, "POST", "/v1/fit", trace, fitRequest(m.id), nil)
		lat := time.Since(t0)
		tr.op(trace, t0, t0.Add(lat))
		if status != m.ref.status || !bytes.Equal(body, m.fit) {
			return lat, fmt.Errorf("warm fit of %s on replica %d: status %d, body differs from the warm one", m.id, rep, status)
		}
		return lat, tr.replay(func() error { return w.replayWarmFit(tr, trace, rep, m, body) })
	case u < 0.95:
		m = w.set[r.IntN(w.policies)]
		status, body := w.g.call(rep, "GET", "/v1/policy?id="+url.QueryEscape(m.id), trace, nil, nil)
		lat := time.Since(t0)
		tr.op(trace, t0, t0.Add(lat))
		if status != http.StatusOK || !bytes.Equal(body, m.policy[rep]) {
			return lat, fmt.Errorf("warm policy of %s on replica %d: status %d, body differs from the warm one", m.id, rep, status)
		}
		return lat, tr.replay(func() error { return w.replayGet(tr, trace, rep, m.id) })
	default:
		ack, err := w.upload(rep, trace, bytes.NewReader(m.upload), nil)
		lat := time.Since(t0)
		tr.op(trace, t0, t0.Add(lat))
		if err != nil {
			return lat, err
		}
		if ack.ID != m.id {
			return lat, fmt.Errorf("re-upload id %s, want %s", ack.ID, m.id)
		}
		return lat, tr.replay(func() error {
			_, _, data, err := w.replayStore(tr, trace, rep, m.upload, false)
			if err == nil {
				_, _, _, err = w.replayStore(tr, trace, 1-rep, data, true)
			}
			return err
		})
	}
}

// replayPredict replays a warm predict: the store get, the order
// statistics behind each speed-up, min-expectation and
// cores-for-speedup answer, and the render, checked against the
// served body.
func (w *readMostly) replayPredict(tr *tracer, trace string, rep int, m *member, a answer) error {
	if err := w.replayGet(tr, trace, rep, m.id); err != nil {
		return err
	}
	if a.status != http.StatusOK {
		return nil
	}
	model := m.ref.model
	resp := predictBody{ID: m.id, Problem: m.c.Problem, Model: model}
	err := tr.stage(trace, "orderstat.ms", false, func() error {
		for _, n := range paperGrid {
			g, err := model.Speedup(n)
			if err != nil {
				return err
			}
			z, err := model.MinExpectation(n)
			if err != nil {
				return err
			}
			resp.Speedups = append(resp.Speedups, speedupBody{Cores: n, Speedup: g, MinExpectation: z, Efficiency: g / float64(n)})
		}
		if m.target > 0 {
			n, err := model.CoresForSpeedup(m.target)
			if err != nil {
				return err
			}
			resp.CoresForSpeedup = &coresBody{Target: m.target, Cores: n}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range quantiles {
		resp.Quantiles = append(resp.Quantiles, quantileBody{P: p, Value: model.Quantile(p)})
	}
	var out []byte
	err = tr.stage(trace, "codec.render_ms", false, func() (err error) {
		out, err = indent(resp)
		return err
	})
	if err == nil && !bytes.Equal(out, a.body) {
		err = fmt.Errorf("stage replay: rendered predict body differs from the served one")
	}
	return err
}

// replayWarmFit replays a warm fit: the store get and the render of
// the cached outcome, checked against the served body.
func (w *readMostly) replayWarmFit(tr *tracer, trace string, rep int, m *member, body []byte) error {
	if err := w.replayGet(tr, trace, rep, m.id); err != nil {
		return err
	}
	if m.ref.status != http.StatusOK {
		return nil
	}
	var out []byte
	err := tr.stage(trace, "codec.render_ms", false, func() (err error) {
		out, err = renderFit(m.id, m.c.Problem, m.ref.cands, m.ref.model, alpha)
		return err
	})
	if err == nil && !bytes.Equal(out, body) {
		err = fmt.Errorf("stage replay: rendered fit body differs from the served one")
	}
	return err
}

// --- ndjson-stream -------------------------------------------------

// streamed is a pre-rendered NDJSON stream, the header seed it is
// sent under, and the reference fit of its campaign.
type streamed struct {
	st      *ndjsonStream
	hdrSeed uint64
	ref     *reference
}

type ndjson struct {
	*served
	big   []streamed // 20k-record streams, one per op
	small []streamed // short streams whose cold policy tables ride on some ops
}

var ndjsonHeader = map[string]string{"Content-Type": "application/x-ndjson"}

// Stream lengths: a big stream is far above the sketch capacity
// (k = 1024), so compaction runs; a small one is below it. A cold
// policy table bootstraps over the campaign's whole run count: on a
// big stream it took ~370 ms, twelve times the rest of an op, so the
// tables are asked for on small streams.
const bigRuns, smallRuns = 20000, 200

// policyEvery is how often an ndjson-stream op also streams a small
// campaign and asks for its cold policy table: rarely enough that
// policy stays a minority share of the op time.
const policyEvery = 4

// setupNDJSON renders the big and small streams and their reference
// fits, then runs a warm-up pass.
func setupNDJSON(e env) (instance, error) {
	s, err := newServed(e)
	if err != nil {
		return nil, err
	}
	w := &ndjson{served: s}
	r := rng(e.seed, 3)
	add := func(to *[]streamed, l law, sh shape) error {
		sh.l = l
		st, err := newNDJSONStream(synthCampaign(r, "base", sh))
		if err != nil {
			return err
		}
		x := streamed{st: st, hdrSeed: e.seed + uint64(len(w.big)+len(w.small))}
		c, err := lasvegas.ReadCampaignNDJSON(w.body(x, "ref"), 0)
		if err == nil {
			x.ref, err = w.reference(c)
		}
		*to = append(*to, x)
		return err
	}
	big := e.size(bigRuns, 3000)
	for k, sh := range spreadShapes(3, big, big) {
		if err == nil {
			err = add(&w.big, []law{lognormal, shiftedExp, lognormal}[k], sh)
		}
	}
	for k, sh := range spreadShapes(2, smallRuns, smallRuns) {
		if err == nil {
			err = add(&w.small, []law{lognormal, shiftedExp}[k], sh)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < e.size(12, 4); i++ {
		if _, err := w.do(-1-i, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return w, nil
}

func (w *ndjson) body(x streamed, label string) io.Reader {
	return io.MultiReader(bytes.NewReader(x.st.header(label, x.hdrSeed)), bytes.NewReader(x.st.records))
}

// sent is one campaign an ndjson-stream op streamed, and its answers.
type sent struct {
	x          streamed
	label      string
	wantPolicy bool
	ack        uploadAck
	status     int
	fit        []byte
	policy     answer
}

// do streams one never-seen campaign (a big stream under a header of
// its own) to one replica and fits its sketch on the other. One op in
// policyEvery then does the same with a small stream and also asks
// the fit replica for its cold policy table.
func (w *ndjson) do(i int, tr *tracer) (time.Duration, error) {
	a := (i%replicas + replicas) % replicas
	b := 1 - a
	trace := traceID(i)
	ops := []*sent{{x: w.big[(i%len(w.big)+len(w.big))%len(w.big)], label: "nd-" + strconv.Itoa(i)}}
	if i%policyEvery == 0 {
		j := i / policyEvery
		ops = append(ops, &sent{x: w.small[(j%len(w.small)+len(w.small))%len(w.small)], label: "np-" + strconv.Itoa(i), wantPolicy: true})
	}
	t0 := time.Now()
	for _, o := range ops {
		var err error
		if o.ack, err = w.upload(a, trace, w.body(o.x, o.label), ndjsonHeader); err != nil {
			return time.Since(t0), err
		}
		o.status, o.fit = w.g.call(b, "POST", "/v1/fit", trace, fitRequest(o.ack.ID), nil)
		if o.wantPolicy {
			o.policy.status, o.policy.body = w.g.call(b, "GET", "/v1/policy?id="+url.QueryEscape(o.ack.ID), trace, nil, nil)
		}
	}
	lat := time.Since(t0)
	tr.op(trace, t0, t0.Add(lat))
	for _, o := range ops {
		if o.ack.Runs != o.x.st.runs || !o.ack.Sketched {
			return lat, fmt.Errorf("stream upload: %d runs (sketched %v), want %d sketched", o.ack.Runs, o.ack.Sketched, o.x.st.runs)
		}
		if err := o.x.ref.checkFit(o.status, o.fit); err != nil {
			return lat, err
		}
		if o.wantPolicy {
			if err := checkPolicy(o.ack.ID, o.policy); err != nil {
				return lat, err
			}
		}
	}
	return lat, tr.replay(func() error {
		for _, o := range ops {
			if err := w.replay(tr, trace, a, b, o); err != nil {
				return err
			}
		}
		return nil
	})
}

// checkPolicy checks a cold /v1/policy answer: a table for the
// campaign asked about, with the four strategies of the panel and the
// first-ranked one as the winner.
func checkPolicy(id string, a answer) error {
	if a.status != http.StatusOK {
		return fmt.Errorf("cold policy: status %d: %.200s", a.status, a.body)
	}
	var p policyAnswer
	if err := json.Unmarshal(a.body, &p); err != nil {
		return fmt.Errorf("cold policy: %w", err)
	}
	if p.ID != id || len(p.Policies) != 4 || p.Winner != p.Policies[0].Policy {
		return fmt.Errorf("cold policy: table for %s with %d rows and winner %q: %.200s", p.ID, len(p.Policies), p.Winner, a.body)
	}
	return nil
}

// replay replays one streamed campaign of a traced op: the stream
// decode, the store path on both replicas, the cold fit and, when the
// op asked, the policy table.
func (w *ndjson) replay(tr *tracer, trace string, a, b int, o *sent) error {
	var c *lasvegas.Campaign
	if err := tr.stage(trace, "stream.decode_ms", false, func() (err error) {
		c, err = lasvegas.ReadCampaignNDJSON(w.body(o.x, o.label), 0)
		return err
	}); err != nil {
		return err
	}
	tr.count("sketch.retained", float64(c.Sketch.Retained()))
	_, id, data, err := w.replayEncode(tr, trace, a, c, false)
	if err != nil {
		return err
	}
	if id != o.ack.ID {
		return fmt.Errorf("stream upload id %s, want %s", o.ack.ID, id)
	}
	if _, _, _, err := w.replayStore(tr, trace, b, data, true); err != nil {
		return err
	}
	tr.count("fit.campaigns", 1)
	adopted, model, err := w.replayColdFit(tr, trace, b, c, id, o.status, o.fit)
	if err != nil || !o.wantPolicy {
		return err
	}
	return w.replayPolicy(tr, trace, b, c, id, adopted, model)
}

// replayPolicy replays a cold /v1/policy: the get, the local fit a
// replica that adopted its /v1/fit answer still computes, and the
// table itself.
func (s *served) replayPolicy(tr *tracer, trace string, b int, c *lasvegas.Campaign, id string, adopted bool, model *lasvegas.Model) error {
	if err := s.replayGet(tr, trace, b, id); err != nil {
		return err
	}
	if adopted {
		if err := tr.stage(trace, "fit.ms", false, func() error {
			_, err := s.ref.FitAll(c)
			return err
		}); err != nil {
			return err
		}
	}
	return tr.stage(trace, "policy.ms", false, func() error {
		_, err := s.ref.PolicyTable(context.Background(), c, model)
		return err
	})
}
