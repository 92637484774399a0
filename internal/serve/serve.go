// Package serve is the HTTP prediction daemon behind cmd/lvserve: the
// paper's collect → fit → predict pipeline (Truchet, Richoux,
// Codognet — ICPP 2013) exposed over the wire through the public
// lasvegas API.
//
// Endpoints:
//
//	POST /v1/campaigns   upload one campaign (schema ≤ 3), an array of
//	                     campaign shards to merge, a
//	                     {"collect": {...}} request the server runs
//	                     itself, a {"merge_ids": [...]} request pooling
//	                     already-stored campaigns, or — with
//	                     Content-Type: application/x-ndjson — a streamed
//	                     NDJSON campaign folded record-by-record into a
//	                     quantile sketch (O(1) memory in the stream
//	                     length; see the lasvegas stream wire format);
//	                     returns the content-derived campaign id
//	POST /v1/fit         {"id": ...} → ranked candidate table with KS
//	                     (and Anderson–Darling) verdicts plus the best
//	                     accepted model
//	GET  /v1/predict     ?id=...&cores=16,32&quantile=0.5,0.9&target=8 →
//	                     speed-up / min-expectation / quantile /
//	                     cores-for-speedup queries against the cached
//	                     model (fitting it on first use)
//	GET  /v1/policy      ?id=... → the ranked restart-policy table:
//	                     no-restart vs fixed-cutoff vs Luby vs
//	                     fitted-optimal, priced in closed form under
//	                     the fitted law, each row validated by a
//	                     seeded campaign replay and a bootstrap CI on
//	                     the plug-in law; the rendered body caches on
//	                     the entry, so repeat reads are byte-identical
//	                     and free
//	GET  /v1/healthz     liveness plus store stats: campaigns, bytes,
//	                     replica and shard range, snapshot-log replay
//	                     counters
//
// # Reads
//
// The three campaign reads (/v1/fit, /v1/predict and /v1/policy)
// share one preamble, ownedRead: the id is routed through
// store.Owners, a replica that does not own it forwards the request to
// the first live owner, and an owner answers from its local entry
// after read-repair and the read quorum. What a read derives from a
// campaign caches on the entry in once-cells of one type, store.Cell:
// the local fit (Entry.Fit, which /v1/predict reads on every request)
// and one rendered body per cached view (Entry.FitView and
// Entry.PolicyView), which /v1/fit and /v1/policy answer from through
// one writer. A cell runs one compute at a time and caches every
// outcome but a cancellation. It never holds a worker-gate slot; each
// compute claims its own, because the policy view's compute runs the
// fit's, and a cell that held a slot across it would deadlock a
// one-slot gate.
//
// # Durability
//
// The campaign store behind the daemon is an internal/store.Store.
// By default it is the in-memory FIFO-bounded cache (Config.DataDir
// empty); pointing DataDir at a directory switches to the durable
// store, which appends every accepted campaign's canonical JSON to an
// fsync'd snapshot log and replays it on boot — a restarted daemon
// serves the same corpus, and (fits being deterministic) byte-
// identical fit and predict responses, without any re-upload.
//
// # Replication
//
// Several replicas can serve one corpus: give each the same
// Config.Peers list and its own Config.ReplicaIndex out of
// Config.ReplicaCount. Campaign ids are consistent-hashed onto a
// preference list of Config.ReplicationFactor replicas
// (store.Owners: the owning hash range plus the next k-1 ranges);
// writes fan out to every owner — acknowledged once Config.WriteQuorum
// owners have fsync'd (default 1: the local fsync, peer copies
// best-effort), with failed peer writes queued in a hinted-handoff
// journal and redelivered when the peer returns — and reads are
// served by the first live owner, with read-repair on a local miss
// (ids are content hashes, so "diverged" can only mean "missing" and
// repair is a re-send) and, with Config.ReadQuorum ≥ 2, confirmation
// (push-repairing as needed) of R owner copies before the answer.
// With k ≥ 2 the group survives the loss of any single replica with
// no data loss and no user-visible downtime.
//
// Three convergence mechanisms stack, each covering the previous
// one's blind spot: hinted handoff redelivers writes a down peer
// missed; read-repair heals any copy a read happens to find missing;
// and active anti-entropy (see antientropy.go) periodically exchanges
// per-hash-range digests between the owners of each range and pulls
// what's missing — so a replica whose hint log was destroyed (which
// OpenHints now quarantines rather than refusing to boot on)
// converges in bounded rounds with no client traffic at all.
// GET /v1/internal/digest serves the digests, GET
// /v1/internal/fit-cache serves finished fit outcomes so the k owners
// of a hot campaign burn at most one fit between them (see
// fitshare.go), and /v1/healthz reports the quorum knobs, exchanger
// progress and any hint-log quarantine alongside the breaker states.
//
// Peer traffic flows through a dedicated client rather than a bare
// http.Client: per-endpoint timeouts (Config.PeerTimeout for
// fit/predict forwards, replication writes and repair fetches;
// Config.PeerCollectTimeout for campaign-upload forwards), bounded
// retries with jittered exponential backoff on transport errors, and
// a per-peer circuit breaker (tripped after consecutive failures,
// half-open probes after a cooldown) so a dead peer costs one fast
// failure instead of a pinned goroutine. GET /v1/healthz exposes each
// peer's breaker state and the hint-queue depth.
//
// Censored campaigns — the cheap, budgeted kind `lvseq -maxiter`
// produces — are first-class: the daemon fits them with the
// censored-campaign estimators (Kaplan–Meier plug-in law, censored
// maximum likelihood over the supported families, candidates ranked
// by censored log-likelihood), and the served model JSON records the
// censoring fraction and estimator kind. Only campaigns whose runs
// are all censored remain unfittable.
//
// The public package's typed errors map onto status codes —
// ErrSchema, ErrEmptyCampaign and ErrStream 400, ErrUnknownProblem
// (and unknown campaign ids) 404, ErrMergeMismatch 409 (merge
// conflicts only), a body over MaxBodyBytes (or a stream over
// MaxStreamBytes) 413, ErrNoAcceptableFit, ErrCensored (all-censored
// campaigns) and ErrNoRawRuns 422 — so clients can program against
// failure modes without parsing messages. Campaign ids are content hashes of the canonical campaign
// JSON and every response is rendered deterministically, so a
// fixed-seed campaign produces byte-identical fit and predict
// responses across daemon restarts.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lasvegas"
	"lasvegas/internal/obs"
	"lasvegas/internal/store"
)

// defaultWorkers sizes the fit/collect pool when Config.Workers is 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Config configures a Server. The zero value serves the paper's
// defaults: DefaultFamilies at α = 0.05, GOMAXPROCS-bounded fitting
// and collection, 8 MiB request bodies, 1024 cached campaigns.
type Config struct {
	// Families are the candidate distribution families /v1/fit ranks
	// (default lasvegas.DefaultFamilies for complete campaigns and
	// lasvegas.CensoredFamilies for censored ones; setting Families
	// explicitly pins both paths to this list, with members lacking a
	// censored estimator reported as failed candidates on censored
	// fits).
	Families []lasvegas.Family
	// Alpha is the KS significance level (default 0.05).
	Alpha float64
	// Workers bounds concurrent fit, policy and collect jobs, and the
	// goroutines each job spreads over (its runs, candidate families
	// or policy rows), so one job uses at most Workers goroutines
	// (default 0 = GOMAXPROCS via the lasvegas defaults).
	Workers int
	// MaxBodyBytes caps buffered request bodies (default 8 MiB).
	// NDJSON campaign streams are exempt — they are never buffered —
	// and capped by MaxStreamBytes instead.
	MaxBodyBytes int64
	// MaxStreamBytes caps one NDJSON campaign stream (default 1 GiB).
	// The cap bounds wire volume, not memory: a stream is folded into
	// a quantile sketch record by record, so server memory stays
	// O(k·log(n/k)) whatever the stream length.
	MaxStreamBytes int64
	// SketchK is the quantile-sketch capacity streamed campaigns are
	// folded at (default 0 = lasvegas.DefaultSketchK). Larger k keeps
	// more of the sample exactly — streams of at most k runs are
	// lossless — at rank error ≈ log2(n/k)/k beyond that.
	SketchK int
	// MaxCampaigns caps the in-memory store; the oldest campaign is
	// evicted first (default 1024).
	MaxCampaigns int
	// MaxCollectRuns caps the runs of one server-side collect request
	// (default 10000), keeping a single request from monopolizing the
	// daemon.
	MaxCollectRuns int
	// DataDir switches the campaign store from the in-memory cache to
	// the durable snapshot-log store rooted at this directory: every
	// accepted campaign is fsync'd before it is acknowledged and
	// replayed on the next boot. Empty (the default) keeps the
	// process-local store.
	DataDir string
	// ReplicaIndex / ReplicaCount place this daemon in a replica
	// group: the store's consistent hash assigns each campaign id to
	// exactly one of ReplicaCount replicas, and this one owns index
	// ReplicaIndex. The default (count ≤ 1) is a single instance
	// owning everything.
	ReplicaIndex int
	ReplicaCount int
	// Peers lists every replica's base URL ("http://host:port"),
	// indexed by replica; requests for campaign ids this replica does
	// not own are proxied to Peers[owner]. Required (with non-empty
	// foreign entries) when ReplicaCount > 1; the entry at
	// ReplicaIndex is never dialed and may be empty.
	Peers []string
	// ReplicationFactor is k, the number of replicas on each
	// campaign's preference list (store.Owners): every write lands on
	// all k owners, every read is served by the first live one, so
	// k ≥ 2 makes the group survive any single replica's death with
	// no data loss. Default 1 (each id has exactly one owner); must
	// not exceed ReplicaCount.
	ReplicationFactor int
	// PeerTimeout bounds one peer call on the short endpoints —
	// /v1/fit and /v1/predict forwards, replication writes and
	// read-repair fetches (default 15s).
	PeerTimeout time.Duration
	// PeerCollectTimeout bounds one forwarded /v1/campaigns upload,
	// whose bodies (merged shard sets, server-side collections) can
	// be orders of magnitude larger than a prediction query
	// (default 2m).
	PeerCollectTimeout time.Duration
	// WriteQuorum is W: how many owner fsyncs a write needs before it
	// is acknowledged (default 1 — ack after the local fsync, peer
	// copies best-effort with hints). With W ≥ 2 an upload that
	// reaches fewer than W owners fails loudly with 503 instead of
	// silently degrading — the accepted copies stay durable and
	// hinted, so a retry after the peer returns succeeds. Must not
	// exceed ReplicationFactor.
	WriteQuorum int
	// ReadQuorum is R: how many owners must hold a verified copy of a
	// campaign before a fit/predict on it is answered (default 1).
	// Owners that are alive but missing the id are push-repaired and
	// re-checked on the spot; fewer than R confirmable owners is a
	// 503. R+W > ReplicationFactor gives read-your-writes through any
	// owner. Must not exceed ReplicationFactor.
	ReadQuorum int
	// AntiEntropyInterval is the pause between digest-exchange rounds
	// of the background anti-entropy loop (default 0 = 15s; negative
	// disables). Each round compares per-hash-range digests with the
	// other owners of every owned range and pulls campaigns this
	// replica is missing, so a replica that lost hints still
	// converges without waiting for a read. The loop only runs when
	// both ReplicaCount and ReplicationFactor are ≥ 2.
	AntiEntropyInterval time.Duration
	// Logger receives the daemon's structured logs: the per-request
	// access log (with trace ID), peer breaker transitions, hint
	// enqueue/drain events, anti-entropy rounds, fit delegations and
	// shutdown. nil discards — the logging path still runs (so tests
	// exercise exactly what production does), it just writes nowhere.
	// cmd/lvserve passes a real handler tagged with the replica slot.
	Logger *slog.Logger
}

// Server is the prediction daemon: a campaign/model store (in-memory
// or durable, possibly one shard of a replica group) plus the HTTP
// handlers over it. Safe for concurrent use.
type Server struct {
	cfg      Config
	pred     *lasvegas.Predictor
	store    store.Store
	gate     store.Gate // bounds concurrent fit/collect work
	replicas int
	self     int
	repl     int         // replication factor k, clamped to replicas
	peerc    *peerClient // dials peer replicas (breaker + retry/backoff)
	hints    *store.Hints

	writeQ int // write quorum W (1 = ack after the local fsync)
	readQ  int // read quorum R (1 = any single owner answers)

	logger *slog.Logger // structured logs (never nil; default discards)
	met    *metrics     // the /v1/metrics registry and its families

	closing   atomic.Bool
	inflight  atomic.Int64  // requests currently inside Handler
	drainKick chan struct{} // nudges the hint drainer after an enqueue
	drainStop chan struct{} // closed by Shutdown
	drainDone chan struct{} // closed when the drainer exits

	aeInterval time.Duration // anti-entropy round pause (0 = loop off)
	aeStop     chan struct{} // closed by Shutdown
	aeDone     chan struct{} // closed when the exchanger exits
	aeRounds   atomic.Int64  // completed digest-exchange rounds
	aePulled   atomic.Int64  // campaigns pulled by anti-entropy
}

// New returns a Server with cfg applied over the defaults. The error
// paths are bad replica configuration and an unopenable DataDir.
func New(cfg Config) (*Server, error) {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.05
	}
	explicitFamilies := len(cfg.Families) > 0
	if !explicitFamilies {
		cfg.Families = lasvegas.DefaultFamilies()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxStreamBytes <= 0 {
		cfg.MaxStreamBytes = 1 << 30
	}
	// Validate the sketch capacity at startup — a bad k would otherwise
	// fail every stream upload with a confusing per-request error.
	if _, err := lasvegas.NewSketch(cfg.SketchK); err != nil {
		return nil, fmt.Errorf("serve: sketch capacity: %w", err)
	}
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 1024
	}
	if cfg.MaxCollectRuns <= 0 {
		cfg.MaxCollectRuns = 10000
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	replicas := cfg.ReplicaCount
	if replicas < 1 {
		replicas = 1
	}
	if cfg.ReplicaIndex < 0 || cfg.ReplicaIndex >= replicas {
		return nil, fmt.Errorf("serve: replica index %d outside [0, %d)", cfg.ReplicaIndex, replicas)
	}
	peers := cfg.Peers
	if replicas > 1 {
		if len(peers) != replicas {
			return nil, fmt.Errorf("serve: %d replicas need %d peer URLs, got %d", replicas, replicas, len(peers))
		}
		peers = append([]string(nil), peers...)
		for i, p := range peers {
			if i == cfg.ReplicaIndex {
				continue // own address, never dialed
			}
			p = strings.TrimSpace(p)
			if p == "" {
				return nil, fmt.Errorf("serve: replica %d has no peer URL", i)
			}
			if !strings.Contains(p, "://") {
				p = "http://" + p
			}
			p = strings.TrimRight(p, "/")
			// Reject unusable peer URLs at startup: a malformed entry
			// would otherwise surface as a confusing per-request error
			// blamed on the client.
			u, err := url.Parse(p)
			if err != nil || u.Scheme == "" || u.Host == "" {
				return nil, fmt.Errorf("serve: replica %d peer URL %q is not a valid base URL", i, peers[i])
			}
			peers[i] = p
		}
	}
	// WithCensoredFit: budgeted campaigns are the cheapest to collect,
	// so the daemon fits them with the survival estimators instead of
	// bouncing them with a 409 (which now remains for merge mismatches
	// only). WithFamilies is passed only for an explicit Config choice
	// so the censored path keeps its own default candidate set.
	opts := []lasvegas.Option{
		lasvegas.WithAlpha(cfg.Alpha),
		lasvegas.WithCensoredFit(true),
		lasvegas.WithWorkers(workers),
	}
	if explicitFamilies {
		opts = append(opts, lasvegas.WithFamilies(cfg.Families...))
	}
	repl := cfg.ReplicationFactor
	if repl < 1 {
		repl = 1
	}
	if repl > replicas {
		return nil, fmt.Errorf("serve: replication factor %d exceeds the %d-replica group", repl, replicas)
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 15 * time.Second
	}
	if cfg.PeerCollectTimeout <= 0 {
		cfg.PeerCollectTimeout = 2 * time.Minute
	}
	writeQ, readQ := cfg.WriteQuorum, cfg.ReadQuorum
	if writeQ < 1 {
		writeQ = 1
	}
	if readQ < 1 {
		readQ = 1
	}
	// A quorum above k could never be met — every write (or read)
	// would fail, which is a configuration mistake, not a policy.
	if writeQ > repl {
		return nil, fmt.Errorf("serve: write quorum %d exceeds replication factor %d", writeQ, repl)
	}
	if readQ > repl {
		return nil, fmt.Errorf("serve: read quorum %d exceeds replication factor %d", readQ, repl)
	}
	aeInterval := cfg.AntiEntropyInterval
	if aeInterval == 0 {
		aeInterval = defaultAntiEntropyInterval
	}
	if aeInterval < 0 {
		aeInterval = 0 // explicitly disabled
	}
	logger := cfg.Logger
	if logger == nil {
		// Discard rather than slog.Default(): the logging path runs
		// identically, but an embedding test stays quiet unless it
		// injects a handler on purpose.
		logger = slog.New(slog.DiscardHandler)
	}
	met := newMetrics()
	var st store.Store
	var hints *store.Hints
	if cfg.DataDir != "" {
		var err error
		if st, err = store.Open(cfg.DataDir, cfg.MaxCampaigns); err != nil {
			return nil, err
		}
		// The hint journal shares the data dir: a replica that crashes
		// with undelivered hints still owes them after a restart. The
		// logger rides along so a quarantined log is attributed to this
		// replica in the fleet's merged artifacts.
		if hints, err = store.OpenHints(filepath.Join(cfg.DataDir, "hints.log"), logger); err != nil {
			st.Close()
			return nil, err
		}
	} else {
		st = store.NewMemory(cfg.MaxCampaigns)
		hints = store.NewHints()
	}
	s := &Server{
		cfg:      cfg,
		pred:     lasvegas.New(opts...),
		store:    st,
		gate:     store.NewGate(workers),
		replicas: replicas,
		self:     cfg.ReplicaIndex,
		repl:     repl,
		peerc:    newPeerClient(peers, met, logger),
		hints:    hints,
		writeQ:   writeQ,
		readQ:    readQ,
		logger:   logger,
		met:      met,
	}
	s.registerGauges()
	if replicas > 1 {
		s.drainKick = make(chan struct{}, 1)
		s.drainStop = make(chan struct{})
		s.drainDone = make(chan struct{})
		go s.drainHints()
	}
	// Anti-entropy only means something when ranges have multiple
	// owners to compare against.
	if replicas > 1 && repl > 1 && aeInterval > 0 {
		s.aeInterval = aeInterval
		s.aeStop = make(chan struct{})
		s.aeDone = make(chan struct{})
		go s.antiEntropyLoop()
	}
	return s, nil
}

// Close shuts the Server down with a default 5-second deadline; see
// Shutdown.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown gracefully stops the Server: new requests are refused
// (503), in-flight ones — including proxied peer requests — are
// drained, a final delivery of the hint queue is attempted, and the
// store is fsync'd and closed, all bounded by ctx. Undelivered hints
// stay in the durable journal for the next boot. Idempotent; the
// handlers must not be used afterwards. (The HTTP listener itself is
// the caller's: stop accepting with http.Server.Shutdown first.)
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closing.Swap(true) {
		return nil
	}
	if s.aeStop != nil {
		close(s.aeStop)
		<-s.aeDone
	}
	if s.drainStop != nil {
		close(s.drainStop)
		<-s.drainDone
	}
	// Drain in-flight handlers within the deadline.
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: shutdown: %d requests still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// One last chance to hand queued hints to returned peers; whatever
	// fails stays journaled.
	if s.hints.Depth() > 0 {
		s.flushHints(ctx)
	}
	herr := s.hints.Close()
	serr := s.store.Close() // fsyncs the snapshot log
	s.logger.Info("shutdown complete", "hints_remaining", s.hints.Depth())
	return errors.Join(serr, herr)
}

// Handler returns the daemon's http.Handler. The wrapper counts
// in-flight requests so Shutdown can drain them, refuses new work once
// shutdown has begun, and carries the telemetry spine: every request
// gets a trace ID (the caller's Lvserve-Trace-Id if it sent one, a
// fresh one otherwise) that rides the request context onto every peer
// hop and comes back on the response header, plus an access-log line
// and a requests/latency observation per request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("POST /v1/fit", s.handleFit)
	mux.HandleFunc("GET /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/policy", s.handlePolicy)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/internal/campaign", s.handleInternalCampaign)
	mux.HandleFunc("GET /v1/internal/digest", s.handleInternalDigest)
	mux.HandleFunc("GET /v1/internal/fit-cache", s.handleInternalFitCache)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := r.Header.Get(obs.TraceHeader)
		if trace == "" {
			trace = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, trace)
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		route := routeLabel(r.URL.Path)
		defer func() {
			d := time.Since(start)
			s.met.observeRequest(route, rec.status, d)
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("duration", d),
				slog.String("trace", trace),
				slog.String("remote", r.RemoteAddr))
		}()
		if s.closing.Load() {
			status := http.StatusServiceUnavailable // 503
			s.writeJSON(rec, status, errorResponse{Error: "serve: shutting down", Status: status})
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		mux.ServeHTTP(rec, r)
	})
}

// statusRecorder captures the status and body size a handler wrote,
// for the access log and the requests counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// --- wire types ---------------------------------------------------

// collectRequest is the server-side collection form of
// POST /v1/campaigns.
type collectRequest struct {
	Problem string `json:"problem"`
	Size    int    `json:"size,omitempty"`
	Runs    int    `json:"runs,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Budget  int64  `json:"budget,omitempty"`
}

// campaignResponse acknowledges a stored campaign. Runs counts every
// run the campaign carries — raw observations plus the ones folded
// into its sketch; Sketched marks campaigns holding (part of) their
// sample as a quantile sketch, e.g. NDJSON stream uploads.
type campaignResponse struct {
	ID       string `json:"id"`
	Problem  string `json:"problem"`
	Size     int    `json:"size,omitempty"`
	Runs     int    `json:"runs"`
	Sketched bool   `json:"sketched,omitempty"`
	Censored int    `json:"censored,omitempty"`
	Budget   int64  `json:"budget,omitempty"`
	Merged   int    `json:"merged_shards,omitempty"`
}

// candidateResponse is one row of the ranked §6 model-selection table.
type candidateResponse struct {
	Family   lasvegas.Family `json:"family"`
	Law      string          `json:"law,omitempty"`
	Accepted bool            `json:"accepted"`
	KS       *gofResponse    `json:"ks,omitempty"`
	AD       *gofResponse    `json:"ad,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// gofResponse is a goodness-of-fit verdict on the wire.
type gofResponse struct {
	Stat   float64 `json:"stat"`
	PValue float64 `json:"p_value"`
	N      int     `json:"n"`
}

// fitResponse answers POST /v1/fit.
type fitResponse struct {
	ID         string              `json:"id"`
	Problem    string              `json:"problem"`
	Best       *lasvegas.Model     `json:"best"`
	Candidates []candidateResponse `json:"candidates"`
}

// speedupResponse is one predicted core count.
type speedupResponse struct {
	Cores          int     `json:"cores"`
	Speedup        float64 `json:"speedup"`
	MinExpectation float64 `json:"min_expectation"`
	Efficiency     float64 `json:"efficiency"`
}

// quantileResponse is one predicted sequential-runtime quantile.
type quantileResponse struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

// coresResponse answers a cores-for-speedup query.
type coresResponse struct {
	Target float64 `json:"target"`
	Cores  int     `json:"cores"`
}

// predictResponse answers GET /v1/predict.
type predictResponse struct {
	ID              string             `json:"id"`
	Problem         string             `json:"problem"`
	Model           *lasvegas.Model    `json:"model"`
	Speedups        []speedupResponse  `json:"speedups,omitempty"`
	Quantiles       []quantileResponse `json:"quantiles,omitempty"`
	CoresForSpeedup *coresResponse     `json:"cores_for_speedup,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// healthResponse answers GET /v1/healthz: liveness plus the stats of
// this replica's own store (peer shards report their own).
type healthResponse struct {
	Status    string `json:"status"`
	Campaigns int    `json:"campaigns"`
	// Bytes is the stored canonical-campaign volume; for a durable
	// store, the snapshot-log size on disk.
	Bytes int64 `json:"bytes"`
	// Durable reports whether the store survives restarts (DataDir set).
	Durable bool `json:"durable"`
	// Replica is this daemon's "index/count" slot in the replica group
	// ("0/1" for a single instance).
	Replica string `json:"replica"`
	// ShardRange is the inclusive hex range of 64-bit campaign-id
	// hashes this replica owns.
	ShardRange string `json:"shard_range"`
	// Replayed counts campaigns recovered from the snapshot log at
	// boot; ReplayMillis is how long the recovery took.
	Replayed     int     `json:"replayed"`
	ReplayMillis float64 `json:"replay_ms"`
	// ReplicationFactor is k: how many replicas hold each campaign.
	ReplicationFactor int `json:"replication_factor"`
	// Hints is the hinted-handoff backlog: replicated writes queued
	// for down peers, awaiting redelivery. 0 means the group has
	// converged.
	Hints int `json:"hints"`
	// HintsQuarantined flags a corrupt hint log set aside at boot:
	// the replica is serving, but hints it had promised may be lost
	// until anti-entropy reconverges them.
	HintsQuarantined bool `json:"hints_quarantined,omitempty"`
	// Quorum reports the write/read quorum knobs (W/R out of k).
	Quorum quorumHealth `json:"quorum"`
	// AntiEntropy reports the digest exchanger's progress; absent
	// when the exchanger is not running (single replica, k = 1, or
	// a negative AntiEntropyInterval).
	AntiEntropy *antiEntropyHealth `json:"anti_entropy,omitempty"`
	// Peers reports each foreign peer's circuit-breaker state, so an
	// operator can see which replicas this one considers dead.
	Peers []peerHealth `json:"peers,omitempty"`
}

// quorumHealth is the W/R quorum configuration on the healthz wire.
type quorumHealth struct {
	Write int `json:"write"`
	Read  int `json:"read"`
}

// antiEntropyHealth is the digest exchanger's healthz snapshot.
type antiEntropyHealth struct {
	// IntervalMillis is the pause between digest-exchange rounds.
	IntervalMillis float64 `json:"interval_ms"`
	// Rounds counts completed exchange rounds since boot.
	Rounds int64 `json:"rounds"`
	// Pulled counts campaigns this replica pulled from peers via
	// anti-entropy (repairs it would otherwise have waited on a read
	// or a hint for).
	Pulled int64 `json:"pulled"`
}

// peerHealth is one peer's circuit-breaker state on the healthz wire.
type peerHealth struct {
	Replica int `json:"replica"`
	// State is "closed" (healthy), "open" (dead, not dialed) or
	// "half-open" (probing).
	State string `json:"state"`
	// Failures counts consecutive transport failures.
	Failures int `json:"failures"`
}

// --- handlers -----------------------------------------------------

// handleCampaigns stores a campaign: an uploaded campaign object
// (schema ≤ 3), an array of shards merged server-side, a
// {"collect": ...} request executed by the daemon, a
// {"merge_ids": [...]} request pooling already-stored campaigns, or —
// declared by Content-Type: application/x-ndjson — an NDJSON campaign
// stream folded into a quantile sketch as it arrives.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	if isNDJSON(r.Header.Get("Content-Type")) {
		s.handleCampaignStream(w, r)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	// A replication write is one campaign's canonical bytes (see
	// storeCampaign), decoded once with no routing probe. Otherwise a
	// shard array merges, a {"collect": ...} object collects
	// server-side, a {"merge_ids": [...]} object pools stored
	// campaigns, anything else is a campaign upload (campaigns always
	// carry "iterations", even sketch-backed ones, where it is null; a
	// probe decode keeps a metadata key named "collect" from misrouting
	// an upload).
	replication := r.Header.Get(replicateHeader) != ""
	var probe struct {
		Collect    json.RawMessage `json:"collect"`
		MergeIDs   []string        `json:"merge_ids"`
		Iterations json.RawMessage `json:"iterations"`
	}
	probed := !replication && json.Unmarshal(trimmed, &probe) == nil && probe.Iterations == nil
	var (
		c      *lasvegas.Campaign
		merged int
	)
	switch {
	case replication:
		if c, err = store.Decode(trimmed); err != nil {
			err = fmt.Errorf("serve: campaign upload: %w", err)
		}
	case len(trimmed) > 0 && trimmed[0] == '[':
		c, merged, err = mergeShards(trimmed)
	case probed && probe.Collect != nil:
		c, err = s.collect(r.Context(), trimmed)
	case probed && probe.MergeIDs != nil:
		c, merged, err = s.mergeByIDs(r.Context(), probe.MergeIDs)
	default:
		c = &lasvegas.Campaign{}
		if err = json.Unmarshal(trimmed, c); err != nil {
			err = fmt.Errorf("serve: campaign upload: %w", err)
		}
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.storeCampaign(w, r, c, merged)
}

// handleCampaignStream is the NDJSON ingest path of /v1/campaigns:
// records are decoded one at a time and folded into a quantile sketch
// of capacity Config.SketchK, so a campaign of millions of runs is
// ingested in O(k·log(n/k)) memory — the server never materializes
// the body. Streams are capped at Config.MaxStreamBytes (a far higher
// bar than MaxBodyBytes, since nothing is buffered), with overflow
// answered 413 like any oversized upload.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	c, err := lasvegas.ReadCampaignNDJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxStreamBytes), s.cfg.SketchK)
	if err != nil {
		s.writeError(w, fmt.Errorf("serve: campaign stream: %w", err))
		return
	}
	s.storeCampaign(w, r, c, 0)
}

// isNDJSON reports whether a Content-Type declares the NDJSON
// campaign-stream wire format (media-type parameters are ignored).
func isNDJSON(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.ToLower(strings.TrimSpace(ct)) {
	case "application/x-ndjson", "application/ndjson", "application/jsonl":
		return true
	}
	return false
}

// storeCampaign encodes a finished campaign and routes the write:
// replication writes store locally, non-owners hand the canonical
// bytes to the first live owner, owners fsync locally and fan out to
// the rest of the preference list. Shared by the buffered and the
// streaming upload paths — routing only ever sees finished campaigns'
// canonical JSON, never request bodies.
func (s *Server) storeCampaign(w http.ResponseWriter, r *http.Request, c *lasvegas.Campaign, merged int) {
	id, canonical, err := store.Encode(c)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := campaignResponse{
		ID:       id,
		Problem:  c.Problem,
		Size:     c.Size,
		Runs:     c.TotalRuns(),
		Sketched: c.HasSketch(),
		Censored: len(c.Censored),
		Budget:   c.Budget,
		Merged:   merged,
	}
	// A replication write from a peer owner (or a hint redelivery):
	// store locally, never fan out or forward again — the sender is
	// the owner coordinating this write.
	if r.Header.Get(replicateHeader) != "" {
		if _, err := s.store.AddEncoded(id, canonical, c); err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	// A campaign lives on every replica of its preference list. Merge
	// and collect already ran here, so owners only ever exchange the
	// finished campaign's canonical bytes (never a second solver run).
	owners := store.Owners(id, s.replicas, s.repl)
	if !ownedBy(owners, s.self) {
		// Not an owner: hand the finished bytes to the first live
		// owner, which stores locally and fans out to the rest. This
		// replica still answers with its own response — it alone knows
		// the merge/collect detail — while owner-side failures are
		// relayed verbatim.
		pr, ok := s.forwardToOwners(w, r, owners, canonical, s.cfg.PeerCollectTimeout)
		if !ok {
			return
		}
		defer pr.Body.Close()
		if pr.StatusCode != http.StatusOK {
			s.relay(w, pr)
			return
		}
		io.Copy(io.Discard, pr.Body)
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	// This replica owns the id: the write is acknowledged once W
	// owners (the local store always being one) have fsync'd it.
	// With the default W = 1 peer copies are best-effort — any peer
	// that can't take its copy right now gets a durable hint instead,
	// so the ack never waits on a dead replica and the copy is never
	// forgotten. With W ≥ 2 a write that lands on fewer than W owners
	// fails loudly (503): the accepted copies are still durable and
	// hinted, so the client may retry once the group heals, but it is
	// never told "replicated" when it wasn't.
	if _, err := s.store.AddEncoded(id, canonical, c); err != nil {
		s.writeError(w, err)
		return
	}
	acks := 1 + s.replicate(r.Context(), owners, id, canonical)
	if acks < s.writeQ {
		s.met.quorumShortfall.With("write").Inc()
		s.logger.Warn("write quorum shortfall",
			"id", id, "acks", acks, "want", s.writeQ, "trace", obs.Trace(r.Context()))
		s.writeError(w, fmt.Errorf("%w: %d/%d owner fsyncs for %s (the accepted copies are durable and hinted for redelivery)",
			errWriteQuorum, acks, s.writeQ, id))
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ownedBy reports whether replica self is on the preference list.
func ownedBy(owners []int, self int) bool {
	for _, o := range owners {
		if o == self {
			return true
		}
	}
	return false
}

// replicate sends a just-accepted write to every other owner on the
// preference list, journaling a hint for each peer that fails — the
// write is already locally durable, so a failed peer costs a hint,
// never the upload. It reports how many peers acknowledged, which is
// what the write-quorum check counts.
func (s *Server) replicate(ctx context.Context, owners []int, id string, canonical []byte) (peerAcks int) {
	for _, o := range owners {
		if o == s.self {
			continue
		}
		if err := s.sendReplicate(ctx, o, canonical); err != nil {
			// Enqueue can only fail on a broken hint log; the write is
			// safe locally either way, so replication degrades to
			// read-repair rather than failing the upload.
			s.hints.Enqueue(o, id, canonical)
			s.met.hintsEnqueued.Inc()
			s.logger.Warn("replication write hinted",
				"peer", o, "id", id, "error", err, "trace", obs.Trace(ctx))
			s.kickDrain()
			continue
		}
		peerAcks++
	}
	return peerAcks
}

// sendReplicate delivers one replication write (marked so the
// receiver stores it without fanning out again) and demands a 200.
func (s *Server) sendReplicate(ctx context.Context, peer int, canonical []byte) error {
	resp, err := s.peerc.do(ctx, peer, s.cfg.PeerTimeout, "POST", "/v1/campaigns", canonical,
		map[string]string{replicateHeader: "1"})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: replica %d: replication write returned %d", peer, resp.StatusCode)
	}
	return nil
}

// mergeShards decodes an array of campaign shards and pools them.
func mergeShards(body []byte) (*lasvegas.Campaign, int, error) {
	var shards []*lasvegas.Campaign
	if err := json.Unmarshal(body, &shards); err != nil {
		return nil, 0, fmt.Errorf("serve: shard array: %w", err)
	}
	c, err := lasvegas.MergeCampaigns(shards...)
	if err != nil {
		return nil, 0, err
	}
	return c, len(shards), nil
}

// mergeByIDs pools already-stored campaigns — typically NDJSON shard
// streams uploaded separately — into one campaign, which then routes
// to its own owners like any upload. Input ids are resolved on this
// replica or read from a peer owner without caching (this replica may
// own none of them). Sketch-backed shards fold their sketches; while
// every shard is still exact the pooled campaign is identical to the
// one a single unsharded stream would have produced.
func (s *Server) mergeByIDs(ctx context.Context, ids []string) (*lasvegas.Campaign, int, error) {
	if len(ids) < 2 {
		return nil, 0, errors.New(`serve: merge request: want {"merge_ids": [two or more campaign ids]}`)
	}
	shards := make([]*lasvegas.Campaign, len(ids))
	for i, id := range ids {
		c, err := s.resolveCampaign(ctx, id)
		if err != nil {
			return nil, 0, fmt.Errorf("serve: merge id %q: %w", id, err)
		}
		shards[i] = c
	}
	c, err := lasvegas.MergeCampaigns(shards...)
	if err != nil {
		return nil, 0, err
	}
	return c, len(ids), nil
}

// resolveCampaign finds one campaign by id: the local store first,
// then — read-only — the id's other owners (peekOwners).
func (s *Server) resolveCampaign(ctx context.Context, id string) (*lasvegas.Campaign, error) {
	e, err := s.store.Get(id)
	if err == nil {
		return e.Campaign, nil
	}
	if !errors.Is(err, store.ErrUnknownCampaign) {
		return nil, err
	}
	if c, _ := s.peekOwners(ctx, id); c != nil {
		return c, nil
	}
	return nil, err
}

// collect runs a campaign on the daemon itself, inside the shared
// worker pool so collection and fitting contend for the same bounded
// CPU budget.
func (s *Server) collect(ctx context.Context, body []byte) (*lasvegas.Campaign, error) {
	var req struct {
		Collect *collectRequest `json:"collect"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Collect == nil {
		return nil, errors.New("serve: collect request: invalid body")
	}
	cr := req.Collect
	if cr.Runs <= 0 {
		cr.Runs = 200
	}
	if cr.Runs > s.cfg.MaxCollectRuns {
		return nil, fmt.Errorf("serve: collect request: %d runs exceeds the %d-run cap", cr.Runs, s.cfg.MaxCollectRuns)
	}
	if cr.Seed == 0 {
		cr.Seed = 1
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	p := lasvegas.New(
		lasvegas.WithRuns(cr.Runs),
		lasvegas.WithSeed(cr.Seed),
		lasvegas.WithBudget(cr.Budget),
		lasvegas.WithWorkers(s.cfg.Workers),
	)
	return p.Collect(ctx, lasvegas.Problem(cr.Problem), cr.Size)
}

// handleFit answers POST /v1/fit from the entry's FitView cell: the
// ranked candidate table plus the best accepted model, rendered once
// per owner and shared across owners (see fitshare.go).
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, fmt.Errorf("serve: fit request: %w", err))
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &req) != nil || req.ID == "" {
		s.writeError(w, errors.New(`serve: fit request: want {"id": "<campaign id>"}`))
		return
	}
	e, owners := s.ownedRead(w, r, "fit", req.ID, body)
	if e == nil {
		return
	}
	share := len(owners) > 1 && r.Header.Get(fitDelegateHeader) == ""
	v, computed, err := e.FitView.Do(func() (store.Rendered, error) {
		return s.fitView(r.Context(), e, owners, share)
	})
	if share && !computed && v.Adopted {
		s.met.fitShare.With("adopted").Inc()
	}
	s.writeView(w, v, err)
}

// renderFit renders a fit's candidate table exactly as POST /v1/fit
// answers it. The internal fit-cache endpoint shares this renderer,
// which is what makes an adopted peer response byte-identical to a
// locally computed one.
func (s *Server) renderFit(e *store.Entry, cands []lasvegas.Candidate) store.Rendered {
	resp := fitResponse{ID: e.ID, Problem: e.Campaign.Problem, Best: best(cands)}
	for _, c := range cands {
		cr := candidateResponse{Family: c.Family, Law: c.Law}
		if c.Err != nil {
			cr.Error = c.Err.Error()
		} else {
			cr.Accepted = !c.KS.RejectedAt(s.cfg.Alpha)
			cr.KS = &gofResponse{Stat: c.KS.Stat, PValue: c.KS.PValue, N: c.KS.N}
			if c.ADValid {
				cr.AD = &gofResponse{Stat: c.AD.Stat, PValue: c.AD.PValue, N: c.AD.N}
			}
		}
		resp.Candidates = append(resp.Candidates, cr)
	}
	return renderJSON(http.StatusOK, resp)
}

// handlePredict answers speed-up, min-expectation, quantile and
// cores-for-speedup queries against the cached model, fitting it on
// first use. Predict needs the Model itself, and models don't
// round-trip the wire, so it always fits locally — at most once per
// owner, through the entry's Fit cell.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	e, _ := s.ownedRead(w, r, "predict", q.Get("id"), nil)
	if e == nil {
		return
	}
	cands, err := s.fit(r.Context(), e)
	if err != nil {
		s.writeError(w, err)
		return
	}
	model := best(cands)
	resp := predictResponse{ID: e.ID, Problem: e.Campaign.Problem, Model: model}
	if coresS := q.Get("cores"); coresS != "" {
		cores, err := lasvegas.ParseCores(coresS)
		if err != nil {
			s.writeError(w, err)
			return
		}
		pts, err := model.Curve(r.Context(), cores)
		if err != nil {
			s.writeError(w, err)
			return
		}
		resp.Speedups = make([]speedupResponse, len(pts))
		for i, p := range pts {
			resp.Speedups[i] = speedupResponse{
				Cores: p.Cores, Speedup: p.Speedup, MinExpectation: p.MeanZ,
				Efficiency: p.Speedup / float64(p.Cores),
			}
		}
	}
	if qsS := q.Get("quantile"); qsS != "" {
		for _, part := range strings.Split(qsS, ",") {
			p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			// p = 1 is excluded: every parametric family here has
			// unbounded upper support, so Quantile(1) is +Inf, which
			// JSON cannot carry.
			if err != nil || math.IsNaN(p) || p < 0 || p >= 1 {
				s.writeError(w, fmt.Errorf("serve: predict: bad quantile %q (want p in [0,1))", part))
				return
			}
			resp.Quantiles = append(resp.Quantiles, quantileResponse{P: p, Value: model.Quantile(p)})
		}
	}
	if targetS := q.Get("target"); targetS != "" {
		target, err := strconv.ParseFloat(targetS, 64)
		if err != nil {
			s.writeError(w, fmt.Errorf("serve: predict: bad target %q", targetS))
			return
		}
		n, err := model.CoresForSpeedup(target)
		if err != nil {
			s.writeError(w, err)
			return
		}
		resp.CoresForSpeedup = &coresResponse{Target: target, Cores: n}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness plus this replica's store stats,
// hint backlog and per-peer breaker states.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	lo, hi := store.ShardRange(s.self, s.replicas)
	hr := healthResponse{
		Status:            "ok",
		Campaigns:         st.Campaigns,
		Bytes:             st.Bytes,
		Durable:           s.cfg.DataDir != "",
		Replica:           fmt.Sprintf("%d/%d", s.self, s.replicas),
		ShardRange:        fmt.Sprintf("%016x-%016x", lo, hi),
		Replayed:          st.Replayed,
		ReplayMillis:      float64(st.ReplayDuration) / 1e6,
		ReplicationFactor: s.repl,
		Hints:             s.hints.Depth(),
		HintsQuarantined:  s.hints.Quarantined(),
		Quorum:            quorumHealth{Write: s.writeQ, Read: s.readQ},
		Peers:             s.peerc.Snapshot(s.self),
	}
	if s.aeInterval > 0 {
		hr.AntiEntropy = &antiEntropyHealth{
			IntervalMillis: float64(s.aeInterval) / 1e6,
			Rounds:         s.aeRounds.Load(),
			Pulled:         s.aePulled.Load(),
		}
	}
	s.writeJSON(w, http.StatusOK, hr)
}

// handleInternalCampaign serves this replica's local copy of a
// campaign's canonical bytes — the peer-to-peer fetch behind
// read-repair. Strictly local: a miss is a 404 here even when a peer
// owner has the campaign, because the caller *is* a peer owner
// working through its preference list.
func (s *Server) handleInternalCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeError(w, errors.New("serve: internal campaign fetch: missing id parameter"))
		return
	}
	e, err := s.store.Get(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	_, canonical, err := store.Encode(e.Campaign)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(canonical)
}

// --- plumbing -----------------------------------------------------

// ownedRead is the preamble of every campaign read (fit, predict,
// policy): it routes id through store.Owners and, on a replica that
// does not own it, forwards the request (with body) to the first live
// owner. On an owner it returns the local entry after read-repair and
// the read quorum, with the id's owners. A nil entry means w has been
// answered.
func (s *Server) ownedRead(w http.ResponseWriter, r *http.Request, route, id string, body []byte) (*store.Entry, []int) {
	if id == "" {
		s.writeError(w, fmt.Errorf("serve: %s: missing id parameter", route))
		return nil, nil
	}
	owners := store.Owners(id, s.replicas, s.repl)
	if !ownedBy(owners, s.self) {
		s.forwardRead(w, r, owners, body)
		return nil, nil
	}
	e, err := s.getOrRepair(r.Context(), id)
	if err == nil {
		err = s.quorumRead(r.Context(), e, owners)
	}
	if err != nil {
		s.writeError(w, err)
		return nil, nil
	}
	return e, owners
}

// fit returns the entry's local fit, the compute of its Fit cell: the
// ranked candidate table, of which best is the model. The compute
// claims a slot on the shared worker gate.
func (s *Server) fit(ctx context.Context, e *store.Entry) ([]lasvegas.Candidate, error) {
	cands, _, err := e.Fit.Do(func() ([]lasvegas.Candidate, error) {
		if err := s.gate.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		return fitCampaign(s.pred, e.Campaign)
	})
	return cands, err
}

// fitCampaign fits every candidate family once and fails with
// ErrNoAcceptableFit when no family is accepted — Predictor.Fit's
// selection rule without fitting the sample twice.
func fitCampaign(pred *lasvegas.Predictor, c *lasvegas.Campaign) ([]lasvegas.Candidate, error) {
	cands, err := pred.FitAll(c)
	if err != nil {
		return nil, err
	}
	if best(cands) == nil {
		return nil, fmt.Errorf("%w (%d candidate families)", lasvegas.ErrNoAcceptableFit, len(cands))
	}
	return cands, nil
}

// best is the model of the first accepted candidate, or nil.
func best(cands []lasvegas.Candidate) *lasvegas.Model {
	for _, c := range cands {
		if c.Err == nil && c.Model != nil && c.Model.Accepted() {
			return c.Model
		}
	}
	return nil
}

// forwardHeader marks a request already routed once between replicas;
// a marked request arriving at a non-owner means the replica group
// disagrees on its own shape, and bouncing it again would loop.
const forwardHeader = "Lvserve-Forwarded"

// replicateHeader marks a replication write from a peer owner (or a
// hint redelivery): store locally, never fan out or forward again.
const replicateHeader = "Lvserve-Replicate"

// forwardRead proxies a read to the first live owner on the
// preference list and copies its response back verbatim — so a client
// talking to any replica sees exactly the bytes an owner produced. An
// owner's 404 is held while later owners are tried (a freshly wiped
// replica may answer before repairing itself); any other response is
// authoritative.
func (s *Server) forwardRead(w http.ResponseWriter, r *http.Request, owners []int, body []byte) {
	resp, ok := s.forwardToOwners(w, r, owners, body, s.cfg.PeerTimeout)
	if !ok {
		return
	}
	defer resp.Body.Close()
	s.relay(w, resp)
}

// forwardToOwners sends the request's method and URI, with body, down
// the preference list until an owner answers, and returns that
// response. The routing failure modes are answered directly on w
// (ok = false): a request that was already forwarded once means the
// replica group disagrees on its own shape (421 — never bounce
// again), and a list with no live owner is a 502.
func (s *Server) forwardToOwners(w http.ResponseWriter, r *http.Request, owners []int, body []byte, timeout time.Duration) (resp *http.Response, ok bool) {
	if r.Header.Get(forwardHeader) != "" {
		status := http.StatusMisdirectedRequest // 421
		s.writeJSON(w, status, errorResponse{
			Error:  fmt.Sprintf("serve: routing loop: replica %d/%d does not own this campaign but was forwarded it (peers misconfigured?)", s.self, s.replicas),
			Status: status,
		})
		return nil, false
	}
	hdr := map[string]string{forwardHeader: "1"}
	var notFound *http.Response // an owner's 404, kept as the fallback answer
	var lastErr error
	for _, o := range owners {
		pr, err := s.peerc.do(r.Context(), o, timeout, r.Method, r.URL.RequestURI(), body, hdr)
		if err != nil {
			lastErr = err
			continue
		}
		if pr.StatusCode == http.StatusNotFound && len(owners) > 1 {
			// This owner doesn't have the id — another owner still
			// might (it may have missed the write or lost its data
			// dir). Keep the 404 in case they all agree.
			if notFound != nil {
				notFound.Body.Close()
			}
			notFound = pr
			continue
		}
		if notFound != nil {
			notFound.Body.Close()
		}
		return pr, true
	}
	if notFound != nil {
		return notFound, true
	}
	status := http.StatusBadGateway // 502
	s.writeJSON(w, status, errorResponse{
		Error:  fmt.Sprintf("serve: no live owner among replicas %v: %v", owners, lastErr),
		Status: status,
	})
	return nil, false
}

// getOrRepair looks a campaign up in the local store and, when this
// owner is missing it (a wiped data dir, a write it was down for),
// read-repairs from the other owners on the preference list: ids are
// content hashes, so divergence can only be absence and repair is a
// verified re-send, stored through the normal (fsync'd) add path.
func (s *Server) getOrRepair(ctx context.Context, id string) (*store.Entry, error) {
	e, err := s.store.Get(id)
	if err == nil || !errors.Is(err, store.ErrUnknownCampaign) {
		return e, err
	}
	if c, canonical := s.peekOwners(ctx, id); c != nil {
		if e, addErr := s.store.AddEncoded(id, canonical, c); addErr == nil {
			return e, nil
		}
	}
	return nil, err
}

// peekOwners is the one owner walk of a read: it peeks the id's other
// owners in preference order and returns the first verified copy,
// or nil when none has it. On a single replica, or at k = 1 on the
// owner itself, there is no other owner to ask.
func (s *Server) peekOwners(ctx context.Context, id string) (*lasvegas.Campaign, []byte) {
	for _, o := range store.Owners(id, s.replicas, s.repl) {
		if o == s.self {
			continue
		}
		if c, canonical := s.peekPeer(ctx, o, id); c != nil {
			return c, canonical
		}
	}
	return nil, nil
}

// fetchFromPeer retrieves one campaign's canonical bytes from a peer
// owner, verifies they hash to the requested id, and stores them
// locally (the repair). Any failure returns nil — the caller just
// tries the next owner.
func (s *Server) fetchFromPeer(ctx context.Context, peer int, id string) *store.Entry {
	c, canonical := s.peekPeer(ctx, peer, id)
	if c == nil {
		return nil
	}
	e, err := s.store.AddEncoded(id, canonical, c)
	if err != nil {
		return nil
	}
	return e
}

// peekPeer retrieves and verifies one campaign from a peer without
// storing it — the fetch behind peekOwners, anti-entropy's
// fetchFromPeer and the quorum checks. Any failure returns nil.
func (s *Server) peekPeer(ctx context.Context, peer int, id string) (*lasvegas.Campaign, []byte) {
	resp, err := s.peerc.do(ctx, peer, s.cfg.PeerTimeout, "GET",
		"/v1/internal/campaign?id="+url.QueryEscape(id), nil, nil)
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, nil
	}
	c, err := store.Decode(data)
	if err != nil {
		return nil, nil
	}
	rid, canonical, err := store.Encode(c)
	if err != nil || rid != id {
		return nil, nil // a peer serving bytes that don't hash to the id is corrupt
	}
	return c, canonical
}

// kickDrain nudges the hint drainer without blocking.
func (s *Server) kickDrain() {
	if s.drainKick == nil {
		return
	}
	select {
	case s.drainKick <- struct{}{}:
	default:
	}
}

// Hint-drain pacing: redelivery retries back off exponentially from
// hintRetryBase to hintRetryMax while a peer stays dead, so a
// restarted replica converges within a few seconds without the
// drainer hammering a down one.
const (
	hintRetryBase = 250 * time.Millisecond
	hintRetryMax  = 5 * time.Second
)

// drainHints is the background redelivery loop: whenever hints are
// queued it walks each owed peer's FIFO, re-sending replication
// writes until the peer refuses again.
func (s *Server) drainHints() {
	defer close(s.drainDone)
	delay := hintRetryBase
	for {
		select {
		case <-s.drainStop:
			return
		case <-s.drainKick:
			delay = hintRetryBase
		case <-time.After(delay):
		}
		if s.hints.Depth() == 0 {
			delay = hintRetryMax // idle; wake cheaply until kicked
			continue
		}
		if s.flushHints(context.Background()) {
			delay = hintRetryBase
		} else if delay *= 2; delay > hintRetryMax {
			delay = hintRetryMax
		}
	}
}

// flushHints attempts to deliver every queued hint, acking the ones
// that land; it reports whether the journal drained empty. Redelivery
// is idempotent — hints carry canonical bytes whose ids are content
// hashes, so a peer that already has the campaign just dedups.
func (s *Server) flushHints(ctx context.Context) bool {
	// Hint redelivery is background work with no originating request,
	// so each drain pass gets a fresh trace ID — the receiving peer's
	// access log ties its stores back to this pass.
	if obs.Trace(ctx) == "" {
		ctx = obs.WithTrace(ctx, obs.NewTraceID())
	}
	delivered := 0
	for _, peer := range s.hints.Peers() {
		for {
			h, ok := s.hints.Next(peer)
			if !ok {
				break
			}
			if ctx.Err() != nil {
				return false
			}
			if err := s.sendReplicate(ctx, peer, h.Data); err != nil {
				break // still down; the next pass retries
			}
			s.hints.Ack(peer, h.ID)
			s.met.hintsDelivered.Inc()
			delivered++
		}
	}
	if delivered > 0 {
		s.logger.Info("hints redelivered",
			"delivered", delivered, "remaining", s.hints.Depth(), "trace", obs.Trace(ctx))
	}
	return s.hints.Depth() == 0
}

// relay copies a peer's response back verbatim.
func (s *Server) relay(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// statusFor maps the public package's typed errors (and the store's
// unknown-id error) onto HTTP status codes.
func statusFor(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		// A body over MaxBodyBytes, or a stream over MaxStreamBytes.
		return http.StatusRequestEntityTooLarge // 413
	case errors.Is(err, lasvegas.ErrUnknownProblem), errors.Is(err, store.ErrUnknownCampaign):
		return http.StatusNotFound // 404
	case errors.Is(err, lasvegas.ErrMergeMismatch):
		return http.StatusConflict // 409
	case errors.Is(err, lasvegas.ErrNoAcceptableFit), errors.Is(err, lasvegas.ErrCensored),
		errors.Is(err, lasvegas.ErrNoRawRuns):
		// ErrCensored survives only for all-censored campaigns (the
		// fit path absorbs partial censoring): like a fit every family
		// rejects, the upload is well-formed but unusable — 422.
		// ErrNoRawRuns likewise: the campaign is valid but the request
		// needs per-run records its sketch no longer holds.
		return http.StatusUnprocessableEntity // 422
	case errors.Is(err, errWriteQuorum), errors.Is(err, errReadQuorum):
		// A quorum the group cannot currently assemble is a transient
		// availability failure, not a client mistake: retryable.
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499 // client closed request (nginx convention)
	default:
		// ErrSchema, ErrEmptyCampaign, ErrStream, JSON decoding and
		// parameter validation are all malformed-request failures.
		return http.StatusBadRequest // 400
	}
}

// writeError renders the uniform JSON error body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	s.writeJSON(w, status, errorResponse{Error: err.Error(), Status: status})
}

// writeJSON renders v indented and deterministic (struct fields only,
// no maps), so fixed campaigns yield byte-stable responses.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.writeView(w, renderJSON(status, v), nil)
}

// writeView is the one writer of a JSON response: a rendered one, or
// err — one a view cell cached, or a cancellation it did not.
func (s *Server) writeView(w http.ResponseWriter, v store.Rendered, err error) {
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(v.Status)
	w.Write(v.Body)
}

// renderJSON renders v as writeJSON sends it. A value JSON cannot
// carry (a non-finite number) renders as a 500.
func renderJSON(status int, v any) store.Rendered {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return store.Rendered{Status: http.StatusInternalServerError, Body: []byte(`{"error":"serve: encoding response"}` + "\n")}
	}
	return store.Rendered{Status: status, Body: append(buf, '\n')}
}
