// Package lasvegas predicts parallel speed-ups for Las Vegas
// algorithms, reproducing "Prediction of Parallel Speed-ups for Las
// Vegas Algorithms" (Truchet, Richoux, Codognet — ICPP 2013) as a
// stdlib-only Go library.
//
// The paper's model: a Las Vegas algorithm has a random sequential
// runtime Y; running n independent copies and keeping the first
// finisher gives the parallel runtime Z(n) = min of n i.i.d. draws of
// Y, so the expected speed-up G(n) = E[Y]/E[Z(n)] is computable from
// the sequential runtime distribution alone.
//
// # The public API: Campaign → Fit → Predict
//
// This package is the single entry point; every CLI under cmd/, every
// example under examples/ and the experiment Lab are built on it. It
// revolves around three nouns:
//
//   - Campaign — a sequential runtime sample with schema-versioned
//     JSON round-trip, instance metadata and censoring info;
//   - Predictor — the configurable pipeline (candidate families, KS
//     α, bootstrap, collection budget/workers/seed via functional
//     options) that collects campaigns and fits them;
//   - Model — an accepted fit exposing Speedup(n), MinExpectation(n),
//     Quantile, its KS verdict, the speed-up limit, and the optimal
//     restart policy of the same law.
//
// Quickstart — collect a Costas campaign, fit it, predict:
//
//	func main() {
//		ctx := context.Background()
//		p := lasvegas.New(lasvegas.WithRuns(200), lasvegas.WithSeed(1))
//		campaign, err := p.Collect(ctx, lasvegas.Costas, 13)
//		if err != nil {
//			log.Fatal(err)
//		}
//		model, err := p.Fit(campaign) // KS-ranked family selection (§6)
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Printf("fitted %s: %s\n", model.Family(), model)
//		for _, n := range []int{16, 64, 256} {
//			g, _ := model.Speedup(n) // G(n) = E[Y]/E[Z(n)]
//			fmt.Printf("G(%d) = %.1f\n", n, g)
//		}
//	}
//
// Campaigns persist with SaveJSON/LoadCampaign, simulate multi-walk
// measurements with Predictor.SimulateSpeedups, race real goroutine
// walkers with Predictor.Race, and extrapolate across instance sizes
// with Predictor.LearnScaling (the paper's §8 direction). Typed
// errors (ErrNoAcceptableFit, ErrCensored, ErrSchema, ...) make the
// failure modes programmable.
//
// # Censored campaigns
//
// The cheapest campaigns cap each run at an iteration budget
// (WithBudget, `lvseq -maxiter`); runs that exhaust it are recorded
// as censored — observed only as "longer than the budget". The §6
// estimators assume complete samples, so by default such campaigns
// fail with ErrCensored. WithCensoredFit turns them into predictions
// instead, via the internal/survival estimators (Hoos & Stützle's
// bounded-measurement treatment): Fit/FitAll run censored maximum
// likelihood over CensoredFamilies, ranked by censored log-likelihood
// with KS/AD verdicts restricted to the uncensored region, and PlugIn
// returns the Kaplan–Meier product-limit law (bit-identical to the
// empirical plug-in when nothing is censored). The fitted Model
// records CensoredFraction and Estimator in its JSON. Collect cheap,
// fit, predict:
//
//	p := lasvegas.New(lasvegas.WithRuns(200), lasvegas.WithSeed(1),
//		lasvegas.WithBudget(1274),        // ~25% of Costas-13 runs censored
//		lasvegas.WithCensoredFit(true))
//	campaign, err := p.Collect(ctx, lasvegas.Costas, 13)
//	if err != nil {
//		log.Fatal(err)
//	}
//	model, err := p.Fit(campaign) // censored MLE, no ErrCensored
//	if err != nil {
//		log.Fatal(err)
//	}
//	km, _ := p.PlugIn(campaign) // Kaplan–Meier plug-in law
//	g, _ := model.Speedup(64)
//	z, _ := km.MinExpectation(64)
//	fmt.Printf("%s (%.0f%% censored): G(64)=%.1f, KM E[Z(64)]=%.0f\n",
//		model, 100*model.CensoredFraction(), g, z)
//
// lvserve fits censored uploads the same way (409 now means merge
// mismatch only), and `lvexp -run censored` holds the estimators
// against multi-walk simulation at several budget levels. Only
// SimulateSpeedups, BootstrapCI and LearnScaling still require
// complete samples.
//
// # Restart policies
//
// A fitted law prices restart schedules. Model.Policies ranks the
// four standard ones — never restarting, a fixed cutoff at the
// median, the Luby universal sequence, and the law's own optimal
// cutoff — by expected runtime under the Luby–Sinclair–Zuckerman
// identity E[T(c)] = E[min(Y,c)]/F(c). Model.OptimalRestart is the
// panel's fitted-optimal row on its own, priced by the same code.
// Predictor.PolicyTable goes further: each closed-form price is
// validated by a deterministic seeded replay of the campaign
// (inverse-CDF resampling with per-attempt cutoff truncation) plus a
// bootstrap percentile CI on the campaign's own plug-in law, and the
// rows come back ranked with a binding winner:
//
//	table, err := p.PolicyTable(ctx, campaign, model)
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, r := range table.Rows {
//		fmt.Printf("%-15s E[T]=%.6g replay=%.6g±%.2g gain=%.3f\n",
//			r.Policy, r.Expected, r.Simulated, r.StdErr, r.Gain)
//	}
//	fmt.Println("winner:", table.Winner)
//
// Heavy-tailed laws reward restarting — fitted-optimal wins with
// gain > 1 — while exponential and lighter laws price every schedule
// at E[Y] or worse and no-restart wins. A cutoff the law can never
// reach prices to +Inf rather than erroring, so the table always has
// four comparable rows. Every number is a pure function of (campaign,
// policy, seed): `lvpredict -policy` renders the same table, and
// lvserve serves it as GET /v1/policy?id=... with byte-stable bodies
// and the same winner.
//
// # Serving
//
// cmd/lvserve (package internal/serve) puts the same pipeline behind
// an HTTP daemon: campaigns upload to a content-addressed store
// (package internal/store), fit once per campaign (single-flight, on
// a bounded worker pool) and answer speed-up queries from the cached
// model, with the typed errors mapped onto status codes (400
// ErrSchema and ErrEmptyCampaign, 404 ErrUnknownProblem and unknown
// ids, 409 ErrMergeMismatch — merge conflicts only — and 422
// ErrNoAcceptableFit or ErrCensored for all-censored campaigns).
// Campaigns may also be collected on several machines — `lvseq -shard
// i/n` splits the run indices into contiguous blocks whose random
// streams still derive from the root seed at the global index — and
// pooled back with Campaign.Merge (or by POSTing the shard array),
// reproducing the single-machine campaign exactly:
//
//	lvseq -problem costas -size 13 -runs 200 -shard 0/2 -out s0.json
//	lvseq -problem costas -size 13 -runs 200 -shard 1/2 -out s1.json
//	lvserve -addr :8080 &
//	jq -s . s0.json s1.json | curl -sd @- localhost:8080/v1/campaigns
//	curl -sd '{"id":"<id>"}' localhost:8080/v1/fit
//	curl -s 'localhost:8080/v1/predict?id=<id>&cores=16,64,256&quantile=0.9&target=8'
//
// Fixed-seed campaigns produce byte-identical fit and predict
// responses across daemon restarts; CI's serve-smoke job replays this
// exact workflow (scripts/serve_smoke.sh) on every push.
//
// # Streaming campaigns and quantile sketches
//
// Campaigns too large to buffer stream instead. WriteNDJSON emits
// the run sample as NDJSON — one header line, one record per run —
// and ReadCampaignNDJSON folds such a stream record-at-a-time into a
// mergeable quantile sketch, never materializing the sample: reading
// an n-run stream retains O(k·log(n/k)) values (NewSketch's k, 1024
// by default), stays exact below that capacity, and reports its own
// rank-error bound above it. `lvseq -format ndjson` pipes straight
// into lvserve's streaming ingest (Content-Type
// application/x-ndjson), and shard streams pooled server-side with
// {"merge_ids": [...]} — or locally with Campaign.Merge, the sketch
// merge being associative and commutative — reproduce byte-for-byte
// the campaign of one unsharded stream:
//
//	lvseq -problem costas -size 13 -runs 200 -shard 0/2 -format ndjson |
//	  curl -sS -H 'Content-Type: application/x-ndjson' --data-binary @- \
//	  localhost:8080/v1/campaigns
//
// Sketch-backed campaigns marshal with schema 3 (raw campaigns keep
// schema 2, so existing content ids never move), fit through the
// same family selection on a bounded inverse-CDF sample (models
// carry EstimatorSketch), and Sketchify converts a raw campaign in
// place of its runs. Censored campaigns cannot stream: the wire
// carries no censoring flags (ErrNoRawRuns and ErrStream type these
// failure modes).
//
// # Serving durably
//
// By default the daemon's store is in-memory and forgets every
// campaign on exit. Pointing it at a data directory makes the corpus
// durable: every accepted campaign's canonical JSON is appended to an
// fsync'd snapshot log and replayed on the next boot, so a restarted
// daemon serves the same campaigns — and, fits being deterministic,
// byte-identical fit and predict responses — with no re-upload:
//
//	lvserve -addr :8080 -data-dir /var/lib/lvserve
//
// Several replicas can serve one corpus. Each gets the same -peers
// list and its own -replica slot; campaign ids are consistent-hashed
// onto a preference list of -replication-factor replicas (the owning
// range of the 64-bit id-hash space plus the next k-1 ranges) and
// requests for foreign ids are proxied to the first live owner, so
// any replica answers any id exactly as a single instance would.
// With k ≥ 2 every write lands on k owners — peers that are down get
// it redelivered from a durable hinted-handoff journal — and an owner
// that lost its disk read-repairs from the others, so the group
// survives the loss of any single replica with no data loss and no
// downtime:
//
//	lvserve -addr :8080 -data-dir d0 -replica 0/3 -replication-factor 2 -peers host0:8080,host1:8080,host2:8080
//	lvserve -addr :8081 -data-dir d1 -replica 1/3 -replication-factor 2 -peers host0:8080,host1:8080,host2:8080
//	lvserve -addr :8082 -data-dir d2 -replica 2/3 -replication-factor 2 -peers host0:8080,host1:8080,host2:8080
//
// Peer calls carry per-endpoint timeouts (-peer-timeout,
// -peer-collect-timeout), bounded retries with jittered backoff, and
// a per-peer circuit breaker so a dead replica costs a fast failure
// instead of a pinned handler.
//
// GET /v1/healthz reports the store behind a replica: resident
// campaigns, stored bytes (the snapshot-log size when durable), the
// replica slot ("0/3") and its hex shard_range, the replayed campaign
// count and replay_ms from the last boot, plus the group's health —
// the replication factor, the hinted-handoff backlog (hints: 0 means
// converged) and every peer's breaker state. CI proves all of it on
// every push: a kill-and-restart pass that must replay the log and
// answer byte-identically without re-upload, a two-replica pass that
// must answer every id identically to a single instance through
// either replica, and a chaos drill (scripts/serve_chaos.sh) that
// kill -9s one member of a loaded 3-replica k=2 group and demands
// zero failed requests, zero lost campaigns and full convergence.
//
// # Layout
//
// All implementation lives under internal/ behind this package:
//
//   - internal/core        — the speed-up predictor (the contribution)
//   - internal/dist        — the distribution kernel (see below)
//   - internal/orderstat   — min/k-th order statistics and moments
//   - internal/ks, fit     — Kolmogorov–Smirnov testing and estimation
//   - internal/adaptive    — the Adaptive Search Las Vegas solver
//   - internal/problems    — ALL-INTERVAL, MAGIC-SQUARE, COSTAS, Queens
//   - internal/sat         — WalkSAT on planted 3-SAT (Problem "sat-3")
//   - internal/multiwalk   — real and simulated multi-walk engines
//   - internal/survival    — Kaplan–Meier and censored-MLE estimators
//   - internal/store       — the durable campaign store behind lvserve
//     (content-addressed snapshot log, replica hash ranges)
//   - internal/serve       — the lvserve HTTP daemon over it
//   - internal/experiments — regenerates every paper table and figure
//     through this package, in parallel on a bounded worker pool
//
// # The distribution kernel and the quantile-domain fast path
//
// internal/dist is built performance-first: every parametric family
// exposes closed-form CDF/PDF/Quantile/Mean/Var, and the empirical
// distribution keeps a sorted backing array so its CDF is a binary
// search and its quantile a single index. Everything downstream rides
// on quantiles:
//
//   - order-statistic moments integrate Q_Y(1-(1-v)^{1/n}) on (0,1)
//     (Nadarajah 2008), evaluated level-by-level through the
//     vectorized QuantileBatch of the hot families;
//   - min-stable families (shifted exponential, Weibull) and the
//     empirical law skip quadrature entirely — MinDist/MinExpectation
//     are exact closed forms;
//   - multiwalk.Simulate draws Z(n) as Q̂(1-(1-U)^{1/n}) on the sorted
//     pool, an O(1) draw per repetition regardless of n.
//
// Hot paths are allocation-free; `make bench` records a baseline in
// BENCH_<n>.json for future performance work to compare against.
//
// See README.md for a tour and docs/ARCHITECTURE.md for the layer
// diagram, the campaign data-flow and the persistence/replication
// design notes.
package lasvegas
