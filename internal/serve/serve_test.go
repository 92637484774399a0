package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lasvegas"
	"lasvegas/internal/store"
)

// fixturePath points at the repository's committed fixed-seed
// Costas-13 campaign (the CI smoke fixture).
var fixturePath = filepath.Join("..", "..", "testdata", "campaign_costas13.json")

func newTestServer(t *testing.T) *httptest.Server {
	return newConfigServer(t, Config{})
}

func newConfigServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, data
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, data
}

func fixtureJSON(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return data
}

// uploadFixture uploads the Costas fixture and returns its campaign id.
func uploadFixture(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	status, body := post(t, ts, "/v1/campaigns", fixtureJSON(t))
	if status != http.StatusOK {
		t.Fatalf("upload: status %d, body %s", status, body)
	}
	var resp campaignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	if resp.ID == "" || resp.Problem != "costas-13" || resp.Runs != 200 {
		t.Fatalf("upload response: %+v", resp)
	}
	return resp.ID
}

// TestUploadFitPredict is the end-to-end happy path the CI smoke job
// replays over a real socket: upload → fit → predict, with sanity
// checks on the numbers.
func TestUploadFitPredict(t *testing.T) {
	ts := newTestServer(t)
	id := uploadFixture(t, ts)

	status, body := post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id)))
	if status != http.StatusOK {
		t.Fatalf("fit: status %d, body %s", status, body)
	}
	var fr struct {
		ID         string              `json:"id"`
		Best       json.RawMessage     `json:"best"`
		Candidates []candidateResponse `json:"candidates"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("fit response: %v", err)
	}
	if fr.ID != id {
		t.Errorf("fit id = %q, want %q", fr.ID, id)
	}
	if len(fr.Candidates) != len(lasvegas.DefaultFamilies()) {
		t.Errorf("fit returned %d candidates, want %d", len(fr.Candidates), len(lasvegas.DefaultFamilies()))
	}
	var best struct {
		Family string  `json:"family"`
		Mean   float64 `json:"mean"`
	}
	if err := json.Unmarshal(fr.Best, &best); err != nil {
		t.Fatalf("best model: %v", err)
	}
	if best.Family == "" || best.Mean <= 0 {
		t.Errorf("best model = %+v, want a fitted family with positive mean", best)
	}
	// The table is ranked by KS p-value: the winner leads and must be
	// accepted.
	if !fr.Candidates[0].Accepted {
		t.Errorf("top-ranked candidate %+v not accepted", fr.Candidates[0])
	}

	status, body = get(t, ts, "/v1/predict?id="+id+"&cores=16,64,256&quantile=0.5,0.9&target=8")
	if status != http.StatusOK {
		t.Fatalf("predict: status %d, body %s", status, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("predict response: %v", err)
	}
	if len(pr.Speedups) != 3 {
		t.Fatalf("predict returned %d speed-up rows, want 3", len(pr.Speedups))
	}
	prev := 1.0
	for _, sp := range pr.Speedups {
		if sp.Speedup <= prev {
			t.Errorf("G(%d) = %v not increasing past %v", sp.Cores, sp.Speedup, prev)
		}
		if sp.Speedup > float64(sp.Cores)*1.001 {
			t.Errorf("G(%d) = %v exceeds the core count", sp.Cores, sp.Speedup)
		}
		if sp.MinExpectation <= 0 {
			t.Errorf("E[Z(%d)] = %v, want > 0", sp.Cores, sp.MinExpectation)
		}
		prev = sp.Speedup
	}
	if len(pr.Quantiles) != 2 || pr.Quantiles[0].Value >= pr.Quantiles[1].Value {
		t.Errorf("quantiles %+v not increasing", pr.Quantiles)
	}
	if pr.CoresForSpeedup == nil || pr.CoresForSpeedup.Cores < 8 {
		t.Errorf("cores_for_speedup %+v, want ≥ 8 cores for a 8x target", pr.CoresForSpeedup)
	}
}

// TestByteStableAcrossRestarts uploads the same fixture to two fresh
// daemons and requires byte-identical fit and predict responses — the
// acceptance criterion that makes cached service answers trustworthy.
func TestByteStableAcrossRestarts(t *testing.T) {
	var fits, predicts [2][]byte
	var ids [2]string
	for i := 0; i < 2; i++ {
		ts := newTestServer(t)
		ids[i] = uploadFixture(t, ts)
		status, body := post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, ids[i])))
		if status != http.StatusOK {
			t.Fatalf("fit: status %d", status)
		}
		fits[i] = body
		status, body = get(t, ts, "/v1/predict?id="+ids[i]+"&cores=16,32,64,128,256&quantile=0.5&target=10")
		if status != http.StatusOK {
			t.Fatalf("predict: status %d", status)
		}
		predicts[i] = body
		ts.Close()
	}
	if ids[0] != ids[1] {
		t.Errorf("campaign ids differ across restarts: %q vs %q", ids[0], ids[1])
	}
	if !bytes.Equal(fits[0], fits[1]) {
		t.Errorf("fit responses differ across restarts:\n%s\nvs\n%s", fits[0], fits[1])
	}
	if !bytes.Equal(predicts[0], predicts[1]) {
		t.Errorf("predict responses differ across restarts:\n%s\nvs\n%s", predicts[0], predicts[1])
	}
}

// TestMergeEndpoint uploads a two-shard split of the fixture as a
// JSON array and checks the pooled campaign matches the unsharded
// upload's content id.
func TestMergeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	c, err := lasvegas.LoadCampaign(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	half := len(c.Iterations) / 2
	shard := func(i int, lo, hi int) *lasvegas.Campaign {
		return &lasvegas.Campaign{
			Problem:    c.Problem,
			Size:       c.Size,
			Runs:       hi - lo,
			Seed:       c.Seed,
			Iterations: c.Iterations[lo:hi],
			Seconds:    c.Seconds[lo:hi],
			// The annotations lvseq -shard writes: a complete in-order
			// cover is what lets the merged campaign keep its Seed and
			// hash to the unsharded campaign's id.
			Metadata: map[string]string{
				"lasvegas.shard":      fmt.Sprintf("%d/2", i),
				"lasvegas.shard.runs": fmt.Sprintf("%d", len(c.Iterations)),
			},
		}
	}
	shards, err := json.Marshal([]*lasvegas.Campaign{
		shard(0, 0, half), shard(1, half, len(c.Iterations)),
	})
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, "/v1/campaigns", shards)
	if status != http.StatusOK {
		t.Fatalf("merge upload: status %d, body %s", status, body)
	}
	var mergedResp campaignResponse
	if err := json.Unmarshal(body, &mergedResp); err != nil {
		t.Fatal(err)
	}
	if mergedResp.Merged != 2 || mergedResp.Runs != len(c.Iterations) {
		t.Fatalf("merge response %+v, want 2 shards and %d runs", mergedResp, len(c.Iterations))
	}

	id := uploadFixture(t, ts)
	if mergedResp.ID != id {
		t.Errorf("merged shards id %q != whole-campaign id %q (merge must reconstruct the campaign exactly)", mergedResp.ID, id)
	}
}

// TestCollectEndpoint asks the daemon to collect a small fixed-seed
// campaign itself.
func TestCollectEndpoint(t *testing.T) {
	ts := newTestServer(t)
	status, body := post(t, ts, "/v1/campaigns",
		[]byte(`{"collect": {"problem": "costas", "size": 8, "runs": 20, "seed": 3}}`))
	if status != http.StatusOK {
		t.Fatalf("collect: status %d, body %s", status, body)
	}
	var resp campaignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Problem != "costas-8" || resp.Runs != 20 {
		t.Errorf("collect response %+v, want costas-8 with 20 runs", resp)
	}
}

// TestErrorMapping locks the typed-error → status-code contract.
func TestErrorMapping(t *testing.T) {
	ts := newTestServer(t)

	uniform := &lasvegas.Campaign{Problem: "synthetic", Runs: 200}
	for i := 1; i <= 200; i++ {
		uniform.Iterations = append(uniform.Iterations, float64(i))
	}
	uniformJSON, err := json.Marshal(uniform)
	if err != nil {
		t.Fatal(err)
	}
	uploadID := func(body []byte) string {
		status, resp := post(t, ts, "/v1/campaigns", body)
		if status != http.StatusOK {
			t.Fatalf("upload: status %d, body %s", status, resp)
		}
		var cr campaignResponse
		if err := json.Unmarshal(resp, &cr); err != nil {
			t.Fatal(err)
		}
		return cr.ID
	}
	allCensored, err := json.Marshal(&lasvegas.Campaign{
		Problem:    "sat-3-120",
		Runs:       3,
		Iterations: []float64{5000, 5000, 5000},
		Censored:   []int{0, 1, 2},
		Budget:     5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	allCensoredID := uploadID(allCensored)
	uniformID := uploadID(uniformJSON)

	mismatched, err := json.Marshal([]*lasvegas.Campaign{
		{Problem: "costas-13", Runs: 1, Iterations: []float64{1}},
		{Problem: "costas-14", Runs: 1, Iterations: []float64{2}},
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		do     func() (int, []byte)
		status int
	}{
		{"malformed JSON 400", func() (int, []byte) {
			return post(t, ts, "/v1/campaigns", []byte(`{nope`))
		}, http.StatusBadRequest},
		{"empty campaign 400", func() (int, []byte) {
			return post(t, ts, "/v1/campaigns", []byte(`{"problem":"x","iterations":[]}`))
		}, http.StatusBadRequest},
		{"future schema 400", func() (int, []byte) {
			return post(t, ts, "/v1/campaigns", []byte(`{"schema":99,"problem":"x","iterations":[1]}`))
		}, http.StatusBadRequest},
		{"unknown collect problem 404", func() (int, []byte) {
			return post(t, ts, "/v1/campaigns", []byte(`{"collect":{"problem":"sudoku"}}`))
		}, http.StatusNotFound},
		{"merge mismatch 409", func() (int, []byte) {
			return post(t, ts, "/v1/campaigns", mismatched)
		}, http.StatusConflict},
		{"oversized body 413", func() (int, []byte) {
			tiny := newConfigServer(t, Config{MaxBodyBytes: 64})
			return post(t, tiny, "/v1/campaigns", uniformJSON)
		}, http.StatusRequestEntityTooLarge},
		{"oversized fit body 413", func() (int, []byte) {
			tiny := newConfigServer(t, Config{MaxBodyBytes: 64})
			return post(t, tiny, "/v1/fit", []byte(`{"id":"`+strings.Repeat("c", 100)+`"}`))
		}, http.StatusRequestEntityTooLarge},
		{"oversized stream 413", func() (int, []byte) {
			tiny := newConfigServer(t, Config{MaxStreamBytes: 64})
			stream := []byte(`{"stream":1,"problem":"x"}` + "\n" +
				strings.Repeat(`{"iterations":123456789}`+"\n", 8))
			return postStream(t, tiny, bytes.NewReader(stream))
		}, http.StatusRequestEntityTooLarge},
		{"torn stream 400", func() (int, []byte) {
			// The header declares 3 runs; the stream carries 2.
			stream := []byte(`{"stream":1,"problem":"x","runs":3}` + "\n" +
				`{"iterations":1}` + "\n" + `{"iterations":2}` + "\n")
			return postStream(t, ts, bytes.NewReader(stream))
		}, http.StatusBadRequest},
		{"stream without header 400", func() (int, []byte) {
			return postStream(t, ts, strings.NewReader(`{"iterations":1}`+"\n"))
		}, http.StatusBadRequest},
		{"merge_ids unknown id 404", func() (int, []byte) {
			return post(t, ts, "/v1/campaigns",
				[]byte(`{"merge_ids":["c0000000000000000","c0000000000000001"]}`))
		}, http.StatusNotFound},
		{"merge_ids too few 400", func() (int, []byte) {
			return post(t, ts, "/v1/campaigns", []byte(`{"merge_ids":["c0000000000000000"]}`))
		}, http.StatusBadRequest},
		{"fit unknown id 404", func() (int, []byte) {
			return post(t, ts, "/v1/fit", []byte(`{"id":"c0000000000000000"}`))
		}, http.StatusNotFound},
		{"fit all-censored 422", func() (int, []byte) {
			return post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, allCensoredID)))
		}, http.StatusUnprocessableEntity},
		{"fit rejected families 422", func() (int, []byte) {
			return post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, uniformID)))
		}, http.StatusUnprocessableEntity},
		{"predict unknown id 404", func() (int, []byte) {
			return get(t, ts, "/v1/predict?id=nope&cores=16")
		}, http.StatusNotFound},
		{"predict missing id 400", func() (int, []byte) {
			return get(t, ts, "/v1/predict?cores=16")
		}, http.StatusBadRequest},
		{"predict bad cores 400", func() (int, []byte) {
			id := uploadFixture(t, ts)
			return get(t, ts, "/v1/predict?id="+id+"&cores=zero")
		}, http.StatusBadRequest},
		{"predict bad quantile 400", func() (int, []byte) {
			id := uploadFixture(t, ts)
			return get(t, ts, "/v1/predict?id="+id+"&quantile=1.5")
		}, http.StatusBadRequest},
		{"predict quantile 1 400", func() (int, []byte) {
			// p = 1 is the infinite upper support edge of every
			// parametric family — rejected rather than a 500 from an
			// unencodable +Inf.
			id := uploadFixture(t, ts)
			return get(t, ts, "/v1/predict?id="+id+"&quantile=1")
		}, http.StatusBadRequest},
		{"predict quantile NaN 400", func() (int, []byte) {
			id := uploadFixture(t, ts)
			return get(t, ts, "/v1/predict?id="+id+"&quantile=NaN")
		}, http.StatusBadRequest},
		{"predict target NaN 400", func() (int, []byte) {
			// Rejected up front: no core count reaches a NaN speed-up,
			// so the capacity search would run to its 2^24-core cap.
			id := uploadFixture(t, ts)
			return get(t, ts, "/v1/predict?id="+id+"&target=NaN")
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := tc.do()
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", status, tc.status, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if er.Status != tc.status || er.Error == "" {
				t.Errorf("error body %+v, want status %d and a message", er, tc.status)
			}
		})
	}
}

// TestHealthz checks liveness plus the store stats the endpoint grew
// with the durable store: byte volume, replica slot and shard range.
func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts, "/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var hr healthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Campaigns != 0 {
		t.Errorf("healthz %+v, want ok with empty store", hr)
	}
	if hr.Durable || hr.Replica != "0/1" || hr.ShardRange != "0000000000000000-ffffffffffffffff" {
		t.Errorf("healthz %+v, want a non-durable single instance owning the whole hash space", hr)
	}
	uploadFixture(t, ts)
	_, body = get(t, ts, "/v1/healthz")
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Campaigns != 1 || hr.Bytes <= 0 {
		t.Errorf("healthz after upload %+v, want 1 campaign and positive bytes", hr)
	}
}

// TestMethodNotAllowed: the v1 mux registers method-qualified
// patterns, so a GET on /v1/fit is rejected by the router.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	status, _ := get(t, ts, "/v1/fit")
	if status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/fit: status %d, want 405", status)
	}
}

// TestUploadDedup re-uploads the fixture and expects the same content
// id rather than a second store entry.
func TestUploadDedup(t *testing.T) {
	ts := newTestServer(t)
	a := uploadFixture(t, ts)
	b := uploadFixture(t, ts)
	if a != b {
		t.Errorf("re-upload produced a new id: %q vs %q", a, b)
	}
	_, body := get(t, ts, "/v1/healthz")
	var hr healthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Campaigns != 1 {
		t.Errorf("store holds %d campaigns after duplicate upload, want 1", hr.Campaigns)
	}
}

// TestCollectRunsCap: a collect request beyond MaxCollectRuns is a
// 400, not a multi-minute campaign.
func TestCollectRunsCap(t *testing.T) {
	ts := newConfigServer(t, Config{MaxCollectRuns: 10})
	status, body := post(t, ts, "/v1/campaigns",
		[]byte(`{"collect": {"problem": "costas", "size": 8, "runs": 50}}`))
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", status, body)
	}
	if !strings.Contains(string(body), "cap") {
		t.Errorf("error body %s does not mention the cap", body)
	}
}

// TestDurableRestart is the durability contract over HTTP: upload and
// fit against a DataDir-backed daemon, tear it down, boot a fresh one
// on the same directory, and get byte-identical fit and predict
// responses without re-uploading anything.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	var fits, predicts [2][]byte
	var id string
	for i := 0; i < 2; i++ {
		ts := newConfigServer(t, Config{DataDir: dir})
		var hr healthResponse
		_, body := get(t, ts, "/v1/healthz")
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatal(err)
		}
		if !hr.Durable {
			t.Fatalf("generation %d: healthz %+v, want durable", i, hr)
		}
		if i == 0 {
			if hr.Campaigns != 0 || hr.Replayed != 0 {
				t.Fatalf("fresh data dir healthz %+v, want empty store", hr)
			}
			id = uploadFixture(t, ts)
		} else {
			// The restarted daemon replayed the snapshot log: the
			// campaign is already there, nothing was re-uploaded.
			if hr.Campaigns != 1 || hr.Replayed != 1 {
				t.Fatalf("restarted healthz %+v, want 1 replayed campaign", hr)
			}
		}
		status, body := post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id)))
		if status != http.StatusOK {
			t.Fatalf("generation %d fit: status %d, body %s", i, status, body)
		}
		fits[i] = body
		status, body = get(t, ts, "/v1/predict?id="+id+"&cores=16,64,256&quantile=0.5&target=8")
		if status != http.StatusOK {
			t.Fatalf("generation %d predict: status %d", i, status)
		}
		predicts[i] = body
		ts.Close()
	}
	if !bytes.Equal(fits[0], fits[1]) {
		t.Errorf("fit responses differ across a durable restart:\n%s\nvs\n%s", fits[0], fits[1])
	}
	if !bytes.Equal(predicts[0], predicts[1]) {
		t.Errorf("predict responses differ across a durable restart:\n%s\nvs\n%s", predicts[0], predicts[1])
	}
}

// replicaGroup boots a two-replica group and returns the base URL of
// each replica. Listeners are created first so every replica knows
// the full peer list before serving.
func replicaGroup(t *testing.T, cfg Config) [2]string {
	t.Helper()
	var listeners [2]net.Listener
	var peers []string
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers = append(peers, "http://"+l.Addr().String())
	}
	var urls [2]string
	for i, l := range listeners {
		c := cfg
		c.ReplicaIndex, c.ReplicaCount, c.Peers = i, 2, peers
		if cfg.DataDir != "" {
			c.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("replica%d", i))
		}
		srv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(l)
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		urls[i] = peers[i]
	}
	return urls
}

// TestReplicaRouting: a two-replica group answers every request —
// upload, fit, predict, for every campaign — byte-identically to a
// single instance, no matter which replica the client talks to, and
// each campaign is resident on exactly one replica.
func TestReplicaRouting(t *testing.T) {
	single := newTestServer(t)
	sid := uploadFixture(t, single)
	_, singleFit := post(t, single, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, sid)))
	_, singlePredict := get(t, single, "/v1/predict?id="+sid+"&cores=16,64&quantile=0.9&target=4")

	urls := replicaGroup(t, Config{})
	httpDo := func(replica int, method, path string, body []byte) (int, []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, urls[replica]+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s via replica %d: %v", method, path, replica, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}

	// Upload through both replicas: same id, one resident copy.
	for replica := range urls {
		status, body := httpDo(replica, "POST", "/v1/campaigns", fixtureJSON(t))
		if status != http.StatusOK {
			t.Fatalf("upload via replica %d: status %d, body %s", replica, status, body)
		}
		var cr campaignResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.ID != sid {
			t.Fatalf("replica %d upload id %q, want the single instance's %q", replica, cr.ID, sid)
		}
	}
	var residents int
	for replica := range urls {
		_, body := httpDo(replica, "GET", "/v1/healthz", nil)
		var hr healthResponse
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatal(err)
		}
		residents += hr.Campaigns
		if want := fmt.Sprintf("%d/2", replica); hr.Replica != want {
			t.Errorf("replica %d healthz slot %q, want %q", replica, hr.Replica, want)
		}
	}
	if residents != 1 {
		t.Fatalf("campaign resident on %d replicas, want exactly 1", residents)
	}

	// Fit and predict through the owner and the non-owner must both
	// return the single instance's exact bytes.
	for replica := range urls {
		status, body := httpDo(replica, "POST", "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, sid)))
		if status != http.StatusOK {
			t.Fatalf("fit via replica %d: status %d, body %s", replica, status, body)
		}
		if !bytes.Equal(body, singleFit) {
			t.Errorf("fit via replica %d differs from the single instance:\n%s\nvs\n%s", replica, body, singleFit)
		}
		status, body = httpDo(replica, "GET", "/v1/predict?id="+sid+"&cores=16,64&quantile=0.9&target=4", nil)
		if status != http.StatusOK {
			t.Fatalf("predict via replica %d: status %d, body %s", replica, status, body)
		}
		if !bytes.Equal(body, singlePredict) {
			t.Errorf("predict via replica %d differs from the single instance", replica)
		}
	}

	// Unknown ids still 404 through the routing layer (the error comes
	// from whichever replica owns the id's hash range).
	status, _ := httpDo(0, "POST", "/v1/fit", []byte(`{"id":"c0000000000000000000000000000000"}`))
	if status != http.StatusNotFound {
		t.Errorf("unknown id via replica group: status %d, want 404", status)
	}
}

// TestRoutingLoopGuard: a request carrying the forwarded marker that
// lands on a non-owner is answered 421, not bounced forever.
func TestRoutingLoopGuard(t *testing.T) {
	urls := replicaGroup(t, Config{})
	// Find an id owned by replica 1 and send it, pre-marked, to
	// replica 0 (and vice versa) — misconfiguration simulated directly.
	for replica := range urls {
		var foreign string
		for i := 0; ; i++ {
			candidate := fmt.Sprintf("c%032x", i)
			if store.Owner(candidate, 2) == 1-replica {
				foreign = candidate
				break
			}
		}
		req, err := http.NewRequest("GET", urls[replica]+"/v1/predict?id="+foreign+"&cores=4", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(forwardHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("pre-forwarded foreign id on replica %d: status %d, want 421", replica, resp.StatusCode)
		}
	}
}

// TestCensoredFitAndPredict: a partially censored upload — the cheap,
// budgeted kind of campaign — fits with 200 via the survival
// estimators instead of bouncing with 409, and the served model
// discloses the censoring fraction and estimator kind.
func TestCensoredFitAndPredict(t *testing.T) {
	ts := newTestServer(t)
	censored, err := os.ReadFile(filepath.Join("..", "..", "testdata", "campaign_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, "/v1/campaigns", censored)
	if status != http.StatusOK {
		t.Fatalf("upload: status %d, body %s", status, body)
	}
	var cr campaignResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Censored != 2 || cr.Budget != 5000 {
		t.Fatalf("upload response lost censoring info: %+v", cr)
	}

	status, body = post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, cr.ID)))
	if status != http.StatusOK {
		t.Fatalf("fit: status %d, body %s", status, body)
	}
	var fr struct {
		Best struct {
			Family           string  `json:"family"`
			Estimator        string  `json:"estimator"`
			CensoredFraction float64 `json:"censored_fraction"`
		} `json:"best"`
		Candidates []candidateResponse `json:"candidates"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Best.Estimator != lasvegas.EstimatorCensoredMLE {
		t.Errorf("best.estimator = %q, want %q", fr.Best.Estimator, lasvegas.EstimatorCensoredMLE)
	}
	if want := 2.0 / 6; fr.Best.CensoredFraction != want {
		t.Errorf("best.censored_fraction = %v, want %v", fr.Best.CensoredFraction, want)
	}
	if len(fr.Candidates) == 0 {
		t.Fatal("fit returned no candidates")
	}

	status, body = get(t, ts, "/v1/predict?id="+cr.ID+"&cores=4,16")
	if status != http.StatusOK {
		t.Fatalf("predict: status %d, body %s", status, body)
	}
	var pr struct {
		Speedups []speedupResponse `json:"speedups"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Speedups) != 2 {
		t.Fatalf("predict returned %d speedups, want 2", len(pr.Speedups))
	}
	// No speedup ≤ cores bound here: a heavy-tailed (lognormal)
	// censored fit legitimately predicts superlinear speed-ups.
	for _, s := range pr.Speedups {
		if !(s.Speedup > 1) || !(s.MinExpectation > 0) || math.IsInf(s.Speedup, 0) {
			t.Errorf("implausible censored-fit prediction: %+v", s)
		}
	}
}
