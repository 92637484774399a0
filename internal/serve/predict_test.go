package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"lasvegas"
	"lasvegas/internal/xrand"
)

// predictGoldenPath pins the exact GET /v1/predict bodies of
// predictGoldenQuery on three campaigns: the raw Costas fixture (the
// shifted-exponential closed form), its censored twin and a
// fixed-seed lognormal campaign (the quadrature path). Regenerate
// with UPDATE_POLICY=1.
var predictGoldenPath = filepath.Join("testdata", "predict_response.golden")

// predictGoldenQuery is the paper's core grid with the quantiles and
// target of a served capacity question.
const predictGoldenQuery = "&cores=1,2,4,8,16,32,64,128,256&quantile=0.5,0.9&target=2"

// lognormalCampaign draws a fixed-seed campaign of 200 iteration
// counts from a lognormal law (log-mean 7, log-sd 0.85), the shape
// the paper fits to All-Interval and Magic-Square.
func lognormalCampaign() *lasvegas.Campaign {
	r := xrand.New(20130901)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = math.Ceil(math.Exp(7 + 0.85*r.Norm()))
	}
	return &lasvegas.Campaign{Problem: "synthetic-lognormal", Runs: len(xs), Seed: 20130901, Iterations: xs}
}

// upload is a named campaign upload body.
type upload struct {
	name string
	body []byte
}

// predictCampaigns returns the golden's campaigns as upload bodies,
// in golden order.
func predictCampaigns(t testing.TB) []upload {
	t.Helper()
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	cens, err := os.ReadFile(filepath.Join("..", "..", "testdata", "campaign_costas13_censored.json"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := json.Marshal(lognormalCampaign())
	if err != nil {
		t.Fatal(err)
	}
	return []upload{{"costas13", raw}, {"costas13-censored", cens}, {"lognormal", ln}}
}

// TestPredictGolden locks the /v1/predict wire body byte for byte on
// the three campaigns, and checks the lognormal one really takes the
// quadrature path.
func TestPredictGolden(t *testing.T) {
	ts := newTestServer(t)
	var got bytes.Buffer
	for _, c := range predictCampaigns(t) {
		status, body := post(t, ts, "/v1/campaigns", c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: upload: status %d, body %s", c.name, status, body)
		}
		var up campaignResponse
		if err := json.Unmarshal(body, &up); err != nil {
			t.Fatal(err)
		}
		status, body = get(t, ts, "/v1/predict?id="+up.ID+predictGoldenQuery)
		if status != http.StatusOK {
			t.Fatalf("%s: predict: status %d, body %s", c.name, status, body)
		}
		var pr struct {
			Model struct {
				Family string `json:"family"`
			} `json:"model"`
		}
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if c.name == "lognormal" && pr.Model.Family != string(lasvegas.LogNormal) {
			t.Fatalf("lognormal campaign fitted %q, want %q", pr.Model.Family, lasvegas.LogNormal)
		}
		fmt.Fprintf(&got, "# %s\n", c.name)
		got.Write(body)
	}
	if os.Getenv("UPDATE_POLICY") != "" {
		if err := os.WriteFile(predictGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", predictGoldenPath)
		return
	}
	want, err := os.ReadFile(predictGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_POLICY=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("predict bodies drifted from golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// BenchmarkPredictHandler times one warm GET /v1/predict through
// Handler().ServeHTTP in process, with read-mostly's query: the
// paper's core grid, two quantiles and target=2. The fit is warmed
// before the timer starts, so an op is the predict itself: E[Z(n)] per
// core count, the quantiles, the capacity search and the render.
// shifted-exp is the Costas fixture (closed forms); lognormal is the
// fixed-seed lognormal campaign (tanh-sinh quadrature).
func BenchmarkPredictHandler(b *testing.B) {
	srv, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, c := range predictCampaigns(b) {
		if c.name == "costas13-censored" {
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(c.body)))
		var up campaignResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || rec.Code != http.StatusOK {
			b.Fatalf("%s: upload: status %d, %v", c.name, rec.Code, err)
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/predict?id="+up.ID+predictGoldenQuery, nil)
		name := map[string]string{"costas13": "shifted-exp", "lognormal": "lognormal"}[c.name]
		b.Run(name, func(b *testing.B) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("warm predict: status %d, body %s", rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("predict: status %d", rec.Code)
				}
			}
		})
	}
}
