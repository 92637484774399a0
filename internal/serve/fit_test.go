package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"lasvegas"
	"lasvegas/internal/store"
)

// fitGoldenPath pins the exact POST /v1/fit bodies: the 200 bodies of
// predict_response.golden's three campaigns and the 422 body of an
// all-censored one. Regenerate with UPDATE_POLICY=1.
var fitGoldenPath = filepath.Join("testdata", "fit_response.golden")

// fitCampaigns is predictCampaigns plus an all-censored campaign,
// which no family can be fitted to.
func fitCampaigns(t testing.TB) []upload {
	t.Helper()
	cens, err := json.Marshal(&lasvegas.Campaign{
		Problem:    "all-censored",
		Size:       5,
		Runs:       4,
		Seed:       1,
		Iterations: []float64{100, 100, 100, 100},
		Censored:   []int{0, 1, 2, 3},
		Budget:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(predictCampaigns(t), upload{"all-censored", cens})
}

// TestFitGolden locks the /v1/fit wire body byte for byte on one
// daemon, then requires the same bytes from the two other paths a fit
// body takes in a replica group: the rendering a secondary owner
// adopts from the primary, and what /v1/internal/fit-cache serves on
// either of them afterwards.
func TestFitGolden(t *testing.T) {
	ts := newTestServer(t)
	g := newGroup(t, 2, 2, Config{AntiEntropyInterval: -1})
	var got bytes.Buffer
	for _, c := range fitCampaigns(t) {
		status, body := post(t, ts, "/v1/campaigns", c.body)
		if status != http.StatusOK {
			t.Fatalf("%s: upload: status %d, body %s", c.name, status, body)
		}
		var up campaignResponse
		if err := json.Unmarshal(body, &up); err != nil {
			t.Fatal(err)
		}
		want := http.StatusOK
		if c.name == "all-censored" {
			want = http.StatusUnprocessableEntity
		}
		fitReq := []byte(fmt.Sprintf(`{"id":%q}`, up.ID))
		status, direct := post(t, ts, "/v1/fit", fitReq)
		if status != want {
			t.Fatalf("%s: fit: status %d, want %d, body %s", c.name, status, want, direct)
		}
		fmt.Fprintf(&got, "# %s\n", c.name)
		got.Write(direct)

		if id := g.uploadSynth(0, c.body); id != up.ID {
			t.Fatalf("%s: group stored id %s, single daemon %s", c.name, id, up.ID)
		}
		primary := store.Owner(up.ID, 2)
		status, adopted := g.do(1-primary, "POST", "/v1/fit", fitReq)
		if status != want || !bytes.Equal(adopted, direct) {
			t.Errorf("%s: fit via the secondary: status %d, body differs from the direct fit: %v",
				c.name, status, !bytes.Equal(adopted, direct))
		}
		for i := range g.srv {
			status, cached := g.do(i, "GET", "/v1/internal/fit-cache?id="+up.ID, nil)
			if status != want || !bytes.Equal(cached, direct) {
				t.Errorf("%s: fit-cache on replica %d: status %d, body differs from the direct fit: %v",
					c.name, i, status, !bytes.Equal(cached, direct))
			}
		}
	}
	if os.Getenv("UPDATE_POLICY") != "" {
		if err := os.WriteFile(fitGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", fitGoldenPath)
		return
	}
	want, err := os.ReadFile(fitGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_POLICY=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fit bodies drifted from golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
