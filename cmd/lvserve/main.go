// Command lvserve is the HTTP prediction daemon: the paper's
// collect → fit → predict pipeline served over the wire. Upload (or
// server-side collect) runtime campaigns, fit them once, and answer
// speed-up queries against the cached model.
//
// Usage:
//
//	lvserve -addr :8080
//	lvserve -addr :8080 -families exponential,shifted-exponential,lognormal -alpha 0.05
//	lvserve -addr :8080 -data-dir /var/lib/lvserve        # durable store
//
// Durability: with -data-dir set, every accepted campaign is appended
// to an fsync'd snapshot log under that directory and replayed on the
// next boot, so a restarted daemon serves the same corpus — and
// byte-identical fit/predict responses — without any re-upload.
//
// Replication: N daemons can serve one corpus as a replica group.
// Give each the same -peers list and its own -replica slot; campaign
// ids are consistent-hashed onto a preference list of
// -replication-factor replicas and requests for foreign ids are
// proxied to the first live owner, so any replica answers any id.
// With -replication-factor 2 or more every write lands on k owners
// (peers that are down get it redelivered via a durable hinted-
// handoff journal), so the group survives the loss of any single
// replica with no data loss and no downtime:
//
//	lvserve -addr :8080 -data-dir d0 -replica 0/3 -replication-factor 2 -peers http://host0:8080,http://host1:8080,http://host2:8080
//	lvserve -addr :8080 -data-dir d1 -replica 1/3 -replication-factor 2 -peers http://host0:8080,http://host1:8080,http://host2:8080
//	lvserve -addr :8080 -data-dir d2 -replica 2/3 -replication-factor 2 -peers http://host0:8080,http://host1:8080,http://host2:8080
//
// Peer calls carry per-endpoint timeouts (-peer-timeout for
// fit/predict forwards, replication writes and read-repair fetches;
// -peer-collect-timeout for forwarded campaign uploads), bounded
// retries with jittered backoff, and a per-peer circuit breaker whose
// state /v1/healthz reports.
//
// Convergence and consistency knobs:
//
//   - -anti-entropy-interval paces the background digest exchanger:
//     each replica periodically compares per-hash-range digests
//     (campaign-id sets plus a pooled quantile-sketch fingerprint)
//     with the other owners of its ranges and pulls whatever it is
//     missing through hash-verified fetches. A replica that lost its
//     hint log — or its whole store — converges in bounded rounds
//     with no client traffic. 0 keeps the 15s default; a negative
//     interval disables the exchanger.
//   - -write-quorum W makes a write ack only after W owners have
//     fsync'd the campaign (the default 1 acks after the local
//     fsync); fewer reachable owners is a 503, though every accepted
//     copy stays durable and hinted for redelivery.
//   - -read-quorum R makes a read confirm R owners hold a verified
//     copy before answering, push-repairing owners that are alive but
//     missing it. Choosing R+W > k buys read-your-writes at the price
//     of refusing (503) while too few owners are reachable.
//
// Quickstart (collect two shards on different machines, merge and
// predict through the daemon):
//
//	lvseq -problem costas -size 13 -runs 200 -shard 0/2 -out shard0.json
//	lvseq -problem costas -size 13 -runs 200 -shard 1/2 -out shard1.json
//	jq -s . shard0.json shard1.json | curl -sd @- localhost:8080/v1/campaigns
//	curl -sd '{"id":"<id>"}' localhost:8080/v1/fit
//	curl -s 'localhost:8080/v1/predict?id=<id>&cores=16,64,256&target=8'
//
// Streaming ingest: POST /v1/campaigns with Content-Type
// application/x-ndjson accepts the NDJSON campaign stream `lvseq
// -format ndjson` emits, folding records into a quantile sketch of
// capacity -sketch-k as they arrive — the daemon's memory stays O(1)
// in the stream length, so campaigns of millions of runs upload
// without a matching -max-body. Streams are capped (by wire volume
// only) at -max-stream-bytes. Shards streamed separately pool
// server-side with {"merge_ids": [...]}:
//
//	lvseq -problem costas -size 13 -runs 100000 -shard 0/2 -format ndjson |
//	  curl -sS -H 'Content-Type: application/x-ndjson' --data-binary @- \
//	  localhost:8080/v1/campaigns
//	curl -sd '{"merge_ids":["<id0>","<id1>"]}' localhost:8080/v1/campaigns
//
// Restart policies: GET /v1/policy?id=... prices the four standard
// restart schedules (no-restart, fixed-cutoff at the median, Luby,
// fitted-optimal) under the campaign's fitted law, validates each
// with a seeded replay plus a bootstrap CI, and returns the ranked
// table with a binding winner — the same verdict `lvpredict -policy`
// prints for the same campaign. The rendered body is owner-routed,
// cached per campaign, and byte-stable across restarts and replicas:
//
//	curl -s 'localhost:8080/v1/policy?id=<id>'
//
// Observability: the daemon logs structured lines (slog) to stderr —
// -log-format picks text or json, -log-level sets the floor (debug
// shows converged anti-entropy rounds and breaker probe churn) — and
// serves its own telemetry at GET /v1/metrics in Prometheus text
// form: per-route request counts and sketch-backed latency quantiles,
// peer-RPC latency, breaker transitions, hint queue depth and drain
// rate, anti-entropy progress, fit single-flight outcomes and quorum
// shortfalls. Every request carries a Lvserve-Trace-Id (the caller's,
// or a fresh one) that is echoed on the response, propagated across
// every peer hop, and stamped on each access-log line — grep one id
// across the fleet's logs to see a request's whole fan-out.
// -pprof-addr serves net/http/pprof on a second listener for CPU and
// heap profiles (keep it off the public interface):
//
//	lvserve -addr :8080 -log-format json -pprof-addr 127.0.0.1:6060
//	curl -s localhost:8080/v1/metrics | grep lvserve_request_latency_quantile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lasvegas"
	"lasvegas/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		familiesS = flag.String("families", "", "comma-separated candidate families (default: the paper's accepted trio)")
		alpha     = flag.Float64("alpha", 0.05, "KS significance level")
		workers   = flag.Int("workers", 0, "max concurrent fit/policy/collect jobs, and goroutines per job (0 = GOMAXPROCS)")
		maxBody   = flag.Int64("max-body", 8<<20, "buffered request body cap in bytes (NDJSON streams are capped by -max-stream-bytes instead)")
		maxStream = flag.Int64("max-stream-bytes", 0, "NDJSON campaign-stream cap in bytes (0 = 1 GiB; bounds wire volume only — streams are never buffered)")
		sketchK   = flag.Int("sketch-k", 0, "quantile-sketch capacity for streamed campaigns (0 = the lasvegas default; rank error ≈ log2(n/k)/k)")
		maxStore  = flag.Int("max-campaigns", 1024, "campaigns cached before FIFO eviction")
		maxRuns   = flag.Int("max-collect-runs", 10000, "per-request cap on server-side collection runs")
		dataDir   = flag.String("data-dir", "", "durable store directory (empty = in-memory only)")
		replicaS  = flag.String("replica", "0/1", "this daemon's slot i/n in a replica group")
		peersS    = flag.String("peers", "", "comma-separated base URLs of all n replicas, in slot order")
		replFac   = flag.Int("replication-factor", 1, "replicas on each campaign's preference list (k; ≥ 2 survives a dead replica)")
		peerTO    = flag.Duration("peer-timeout", 0, "per-call timeout for short peer endpoints: fit/predict forwards, replication writes, repair fetches (0 = 15s)")
		collectTO = flag.Duration("peer-collect-timeout", 0, "per-call timeout for forwarded campaign uploads (0 = 2m)")
		writeQ    = flag.Int("write-quorum", 0, "owner fsyncs required before a write acks (0 = 1; must be ≤ replication factor)")
		readQ     = flag.Int("read-quorum", 0, "owner copies confirmed before a read answers (0 = 1; must be ≤ replication factor)")
		aeEvery   = flag.Duration("anti-entropy-interval", 0, "digest-exchange period for background convergence (0 = 15s; negative disables)")
		logFormat = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevel  = flag.String("log-level", "info", "log floor: debug, info, warn or error")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off; keep it off public interfaces)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	families, err := parseFamilies(*familiesS)
	if err != nil {
		fatal(err)
	}
	replicaIndex, replicaCount, err := parseReplica(*replicaS)
	if err != nil {
		fatal(err)
	}
	// Tag every line with the replica slot: the fleet's logs merge into
	// one stream (CI uploads them side by side) and stay attributable.
	logger = logger.With("replica", fmt.Sprintf("%d/%d", replicaIndex, replicaCount))
	var peers []string
	if *peersS != "" {
		peers = strings.Split(*peersS, ",")
	}
	srv, err := serve.New(serve.Config{
		Families:       families,
		Alpha:          *alpha,
		Workers:        *workers,
		MaxBodyBytes:   *maxBody,
		MaxStreamBytes: *maxStream,
		SketchK:        *sketchK,
		MaxCampaigns:   *maxStore,
		MaxCollectRuns: *maxRuns,
		DataDir:        *dataDir,
		ReplicaIndex:   replicaIndex,
		ReplicaCount:   replicaCount,
		Peers:          peers,

		ReplicationFactor:  *replFac,
		PeerTimeout:        *peerTO,
		PeerCollectTimeout: *collectTO,

		WriteQuorum:         *writeQ,
		ReadQuorum:          *readQ,
		AntiEntropyInterval: *aeEvery,
		Logger:              logger,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	// The pprof listener is its own mux on its own address: the
	// default-mux registrations pprof's import side effect performs
	// never reach the daemon's public handler.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(), // access log + metrics + trace live inside
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		storeKind := "in-memory store"
		if *dataDir != "" {
			storeKind = "durable store at " + *dataDir
		}
		logger.Info("listening", "addr", *addr, "store", storeKind)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Stop accepting first, then drain the daemon itself: in-flight
	// (and proxied) requests finish, a final hint delivery runs, and
	// the store is fsync'd before the process exits.
	if err := hs.Shutdown(ctx); err != nil {
		fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
}

// parseReplica parses the -replica flag's "i/n" slot. Strict: the
// flag must be exactly two integers — trailing garbage would silently
// start a replica that routes differently from its peers.
func parseReplica(s string) (index, count int, err error) {
	bad := func() (int, int, error) {
		return 0, 0, fmt.Errorf("lvserve: bad -replica %q (want i/n with 0 ≤ i < n)", s)
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return bad()
	}
	index, err = strconv.Atoi(is)
	if err != nil {
		return bad()
	}
	count, err = strconv.Atoi(ns)
	if err != nil || count < 1 || index < 0 || index >= count {
		return bad()
	}
	return index, count, nil
}

// parseFamilies parses the -families flag against the families the
// fitter knows (plus "empirical", which Fit does not accept).
func parseFamilies(s string) ([]lasvegas.Family, error) {
	if s == "" {
		return nil, nil
	}
	known := map[lasvegas.Family]bool{}
	for _, f := range lasvegas.AllFamilies() {
		known[f] = true
	}
	var out []lasvegas.Family
	for _, part := range strings.Split(s, ",") {
		f := lasvegas.Family(strings.TrimSpace(part))
		if !known[f] {
			return nil, fmt.Errorf("lvserve: unknown family %q (known: %v)", f, lasvegas.AllFamilies())
		}
		out = append(out, f)
	}
	return out, nil
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags. The access log (one line per request, with trace
// ID, status, bytes and duration) moved into the serve package, where
// it shares the trace middleware; this is just the sink.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("lvserve: bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("lvserve: bad -log-format %q (want text or json)", format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvserve:", err)
	os.Exit(1)
}
