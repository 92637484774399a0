package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lasvegas"
	"lasvegas/internal/obs"
)

// policyGoldenPath pins the exact GET /v1/policy body for the Costas
// fixture. Regenerate with UPDATE_POLICY=1.
var policyGoldenPath = filepath.Join("testdata", "policy_response.golden")

// TestPolicyGolden locks the /v1/policy wire body byte-for-byte on
// the committed fixture, proves repeat reads serve the cached bytes
// (policy_computes: 1 computed + 1 cached), and cross-checks the
// served winner against the public API under lvpredict's exact
// configuration — the CLI-vs-daemon winner agreement the acceptance
// criteria demand.
func TestPolicyGolden(t *testing.T) {
	ts := newTestServer(t)
	id := uploadFixture(t, ts)

	status, body := get(t, ts, "/v1/policy?id="+id)
	if status != http.StatusOK {
		t.Fatalf("policy: status %d, body %s", status, body)
	}
	if os.Getenv("UPDATE_POLICY") != "" {
		if err := os.MkdirAll(filepath.Dir(policyGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(policyGoldenPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", policyGoldenPath)
	} else {
		want, err := os.ReadFile(policyGoldenPath)
		if err != nil {
			t.Fatalf("read golden (run with UPDATE_POLICY=1 to create): %v", err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("policy body drifted from golden\n--- got ---\n%s--- want ---\n%s", body, want)
		}
	}

	// Second read: byte-identical, and served from the entry's cache.
	status, again := get(t, ts, "/v1/policy?id="+id)
	if status != http.StatusOK {
		t.Fatalf("policy (cached): status %d", status)
	}
	if !bytes.Equal(body, again) {
		t.Errorf("repeat policy reads differ:\n%s\nvs\n%s", body, again)
	}
	_, metricsBody := get(t, ts, "/v1/metrics")
	scrape, err := obs.ParseText(bytes.NewReader(metricsBody))
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	if v, ok := scrape.Get(`lvserve_policy_computes_total{event="computed"}`); !ok || v != 1 {
		t.Errorf("policy_computes{computed} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := scrape.Get(`lvserve_policy_computes_total{event="cached"}`); !ok || v != 1 {
		t.Errorf("policy_computes{cached} = %v (ok=%v), want 1", v, ok)
	}

	// The served verdict must be the public API's verdict under the
	// CLI's exact configuration (same alpha, censored fit, seed).
	var resp struct {
		Winner   string `json:"winner"`
		Policies []struct {
			Policy string `json:"policy"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode policy body: %v", err)
	}
	if len(resp.Policies) != 4 {
		t.Fatalf("policy body has %d rows, want 4", len(resp.Policies))
	}
	if resp.Winner == "" || resp.Winner != resp.Policies[0].Policy {
		t.Errorf("winner %q is not the first ranked row %q", resp.Winner, resp.Policies[0].Policy)
	}
	c, err := lasvegas.LoadCampaign(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	pred := lasvegas.New(lasvegas.WithAlpha(0.05), lasvegas.WithCensoredFit(true))
	table, err := pred.PolicyTable(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if table.Winner != resp.Winner {
		t.Errorf("daemon winner %q != public-API winner %q", resp.Winner, table.Winner)
	}
}

// TestPolicyUnknownID: an id nobody stored is a 404, same contract as
// fit and predict.
func TestPolicyUnknownID(t *testing.T) {
	ts := newTestServer(t)
	status, body := get(t, ts, "/v1/policy?id=cdeadbeefdeadbeef")
	if status != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, body %s", status, body)
	}
	status, _ = get(t, ts, "/v1/policy")
	if status != http.StatusBadRequest {
		t.Fatalf("missing id: status %d", status)
	}
}

// TestPolicyAllCensored: a campaign with every run censored has no
// event mass — no law to price policies on — and must answer 422
// (unprocessable), not 500, on every read including repeats (the
// deterministic error caches like a value).
func TestPolicyAllCensored(t *testing.T) {
	ts := newTestServer(t)
	c := &lasvegas.Campaign{
		Problem:    "all-censored",
		Size:       5,
		Runs:       4,
		Seed:       1,
		Iterations: []float64{100, 100, 100, 100},
		Censored:   []int{0, 1, 2, 3},
		Budget:     100,
	}
	payload, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, ts, "/v1/campaigns", payload)
	if status != http.StatusOK {
		t.Fatalf("upload all-censored: status %d, body %s", status, body)
	}
	var up campaignResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		status, body = get(t, ts, "/v1/policy?id="+up.ID)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("read %d: all-censored policy: status %d, body %s", i, status, body)
		}
	}
}

// TestPolicyDurableRestart: the policy body must be byte-identical
// across a daemon kill and reboot on the same data dir — the replay
// and bootstrap are seeded off campaign content, never off process
// state, so a restarted replica re-derives the same table.
func TestPolicyDurableRestart(t *testing.T) {
	dir := t.TempDir()
	var bodies [2][]byte
	var id string
	for i := 0; i < 2; i++ {
		ts := newConfigServer(t, Config{DataDir: dir})
		if i == 0 {
			id = uploadFixture(t, ts)
		}
		status, body := get(t, ts, "/v1/policy?id="+id)
		if status != http.StatusOK {
			t.Fatalf("generation %d: status %d, body %s", i, status, body)
		}
		bodies[i] = body
		ts.Close()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("policy bodies differ across a durable restart:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestPolicyForwarded: a non-owner replica proxies /v1/policy to the
// owner and relays its bytes verbatim, so clients can ask any group
// member.
func TestPolicyForwarded(t *testing.T) {
	urls := replicaGroup(t, Config{})
	// Upload through replica 0; the id's owner may be either.
	resp, err := http.Post(urls[0]+"/v1/campaigns", "application/json", bytes.NewReader(mustFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	var up campaignResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := up.ID

	var bodies [2][]byte
	for i, u := range urls {
		r, err := http.Get(u + "/v1/policy?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("replica %d: status %d", i, r.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		bodies[i] = buf.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("replicas disagree on policy bytes:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

func mustFixture(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cancelAfter is a context that reports cancellation from its
// (after+1)-th Err call on, so a test can cancel a request at a fixed
// point of its work: PolicyTable checks ctx before each row task.
type cancelAfter struct {
	context.Context
	after int32
	calls atomic.Int32
	once  sync.Once
	done  chan struct{}
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) <= c.after {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestPolicyCancelledMidTable: a /v1/policy whose client goes away
// after the table's first row task must answer 499 and cache nothing,
// so the next request computes the table (policy_computes: 1 error, 1
// computed) and gets the golden bytes.
func TestPolicyCancelledMidTable(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := serve(httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(mustFixture(t))))
	var up campaignResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("upload: status %d, %v", rec.Code, err)
	}
	// Fit first, so the policy request's only context checks are the
	// table's own.
	if rec := serve(httptest.NewRequest(http.MethodPost, "/v1/fit", strings.NewReader(`{"id":"`+up.ID+`"}`))); rec.Code != http.StatusOK {
		t.Fatalf("fit: status %d, body %s", rec.Code, rec.Body)
	}

	ctx := &cancelAfter{Context: context.Background(), after: 1, done: make(chan struct{})}
	rec = serve(httptest.NewRequest(http.MethodGet, "/v1/policy?id="+up.ID, nil).WithContext(ctx))
	if rec.Code != 499 {
		t.Fatalf("cancelled policy: status %d, body %s, want 499", rec.Code, rec.Body)
	}
	if n := ctx.calls.Load(); n < 2 {
		t.Fatalf("the table checked its context %d times, want the cancellation to land mid-table", n)
	}

	rec = serve(httptest.NewRequest(http.MethodGet, "/v1/policy?id="+up.ID, nil))
	want, err := os.ReadFile(policyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("policy after a cancelled one: status %d, body %s", rec.Code, rec.Body)
	}
	scrape, err := obs.ParseText(bytes.NewReader(serve(httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)).Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for event, want := range map[string]float64{"error": 1, "computed": 1, "cached": 0} {
		if v, _ := scrape.Get(`lvserve_policy_computes_total{event="` + event + `"}`); v != want {
			t.Errorf("policy_computes{%s} = %v, want %v", event, v, want)
		}
	}
}
