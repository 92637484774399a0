package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"lasvegas/internal/obs"
	"lasvegas/internal/store"
)

// TestCrossReplicaFitSingleFlight is the acceptance test for fit
// sharing: a concurrent /v1/fit herd spread over all k owners of a
// campaign must cost the group exactly ONE fit computation — the id's
// primary owner computes, every other owner adopts the rendered
// response — and every request must get the same bytes.
func TestCrossReplicaFitSingleFlight(t *testing.T) {
	g := newGroup(t, 3, 3, Config{AntiEntropyInterval: -1}) // k = n: all 3 own every id
	id := g.uploadSynth(0, synthCampaign(t, 40))
	primary := store.Owner(id, 3)
	fitBody := []byte(fmt.Sprintf(`{"id":%q}`, id))

	const herd = 12
	responses := make([][]byte, herd)
	statuses := make([]int, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], responses[i] = g.do(i%3, "POST", "/v1/fit", fitBody)
		}(i)
	}
	wg.Wait()

	for i := 0; i < herd; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("herd request %d (replica %d): status %d, body %s",
				i, i%3, statuses[i], responses[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Errorf("herd request %d answer diverges:\n%s\nvs\n%s", i, responses[i], responses[0])
		}
	}

	// Exactly one owner computed; the other two hold adopted renderings
	// instead of models.
	computed, adopted := 0, 0
	for i := range g.srv {
		e, err := g.srv[i].store.Get(id)
		if err != nil {
			t.Fatalf("replica %d lost the campaign: %v", i, err)
		}
		if _, done, _ := e.Fit.Peek(); done {
			computed++
			if i != primary {
				t.Errorf("replica %d computed a fit but the id's primary owner is %d", i, primary)
			}
		}
		if v, _, _ := e.FitView.Peek(); v.Adopted {
			adopted++
		}
	}
	if computed != 1 {
		t.Errorf("%d owners computed a fit for the herd, want exactly 1", computed)
	}
	if adopted != 2 {
		t.Errorf("%d owners adopted a peer rendering, want 2", adopted)
	}

	// A later request to a secondary serves its adopted copy with no
	// further coordination, still byte-identical.
	status, resp := g.do((primary+1)%3, "POST", "/v1/fit", fitBody)
	if status != http.StatusOK || !bytes.Equal(resp, responses[0]) {
		t.Errorf("post-herd fit via secondary: status %d, body %s", status, resp)
	}
}

// TestFitSharePrimaryDownFallsBack: fit sharing is an optimization,
// never an availability dependency — with the id's primary owner dead,
// a secondary's fit must still succeed by computing locally.
func TestFitSharePrimaryDownFallsBack(t *testing.T) {
	g := newGroup(t, 3, 3, Config{AntiEntropyInterval: -1})
	id := g.uploadSynth(0, synthCampaign(t, 41))
	primary := store.Owner(id, 3)
	secondary := (primary + 1) % 3

	g.kill(primary)
	status, resp := g.do(secondary, "POST", "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id)))
	if status != http.StatusOK {
		t.Fatalf("fit via secondary with primary down: status %d, body %s", status, resp)
	}
	e, err := g.srv[secondary].store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, _ := e.Fit.Peek(); !done {
		t.Error("secondary did not fall back to a local fit with the primary down")
	}
}

// TestInternalFitCacheNeverComputes: the probe endpoint is strictly
// read-only — an id with no finished fit is a 404, and probing must
// not leave a fit behind.
func TestInternalFitCacheNeverComputes(t *testing.T) {
	g := newGroup(t, 2, 2, Config{AntiEntropyInterval: -1})
	id := g.uploadSynth(0, synthCampaign(t, 42))

	status, body := g.do(0, "GET", "/v1/internal/fit-cache?id="+id, nil)
	if status != http.StatusNotFound {
		t.Fatalf("fit-cache probe before any fit: status %d, body %s, want 404", status, body)
	}
	e, err := g.srv[0].store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, _ := e.Fit.Peek(); done {
		t.Error("probing the fit cache computed a fit")
	}

	// After a real fit, the probe serves the identical rendering.
	status, direct := g.do(0, "POST", "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id)))
	if status != http.StatusOK {
		t.Fatalf("fit: status %d, body %s", status, direct)
	}
	status, cached := g.do(0, "GET", "/v1/internal/fit-cache?id="+id, nil)
	if status != http.StatusOK || !bytes.Equal(cached, direct) {
		t.Errorf("fit-cache probe after fit: status %d; bytes match direct fit: %v",
			status, bytes.Equal(cached, direct))
	}

	status, _ = g.do(0, "GET", "/v1/internal/fit-cache?id=c0000000000000000", nil)
	if status != http.StatusNotFound {
		t.Errorf("fit-cache probe for unknown id: status %d, want 404", status)
	}
}

// shareCounters are the two counter families perfbench derives
// fit.computed_per_campaign and policy.cache_hit_frac from.
var shareCounters = []string{
	`lvserve_fit_share_total{event="hit"}`,
	`lvserve_fit_share_total{event="adopted"}`,
	`lvserve_fit_share_total{event="delegated"}`,
	`lvserve_fit_share_total{event="local"}`,
	`lvserve_policy_computes_total{event="computed"}`,
	`lvserve_policy_computes_total{event="cached"}`,
	`lvserve_policy_computes_total{event="error"}`,
}

// scrapeShare reads replica i's share counters; an absent sample is 0.
func (g *group) scrapeShare(i int) map[string]float64 {
	g.t.Helper()
	_, body := g.do(i, "GET", "/v1/metrics", nil)
	scrape, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, name := range shareCounters {
		if v, ok := scrape.Get(name); ok && v != 0 {
			out[name] = v
		}
	}
	return out
}

// TestFitShareCounters pins the fit-share and policy-compute counters
// of a fixed sequential request script on a 3-replica, k = 3 group,
// summed over the replicas: each step moves exactly one counter (or
// none), so a change to the coordination shows up as a count.
func TestFitShareCounters(t *testing.T) {
	g := newGroup(t, 3, 3, Config{AntiEntropyInterval: -1})
	fit := func(i int, id string) {
		t.Helper()
		if status, body := g.do(i, "POST", "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id))); status != http.StatusOK {
			t.Fatalf("fit %s via replica %d: status %d, body %s", id, i, status, body)
		}
	}
	a := g.uploadSynth(0, synthCampaign(t, 50))
	pa := store.Owner(a, 3)
	fit((pa+1)%3, a) // delegated: the secondary hands the fit to the primary
	fit((pa+1)%3, a) // adopted: the secondary serves what it adopted
	fit((pa+2)%3, a) // hit: the other secondary finds the primary's fit
	fit(pa, a)       // the primary serves its own fit

	b := g.uploadSynth(0, synthCampaign(t, 51))
	sb := (store.Owner(b, 3) + 1) % 3
	if status, body := g.do(sb, "GET", "/v1/predict?id="+b+"&cores=16", nil); status != http.StatusOK {
		t.Fatalf("predict %s via replica %d: status %d, body %s", b, sb, status, body)
	}
	fit(sb, b) // a local fit already exists: no sharing

	c := g.uploadSynth(0, synthCampaign(t, 52))
	pc := store.Owner(c, 3)
	total := g.scrapeShare(pc)
	g.kill(pc)
	fit((pc+1)%3, c) // local: the primary is down

	live := (pc + 1) % 3
	for range 2 {
		if status, body := g.do(live, "GET", "/v1/policy?id="+a, nil); status != http.StatusOK {
			t.Fatalf("policy %s via replica %d: status %d, body %s", a, live, status, body)
		}
	}
	for i := range g.srv {
		if i == pc {
			continue
		}
		for k, v := range g.scrapeShare(i) {
			total[k] += v
		}
	}
	want := map[string]float64{
		`lvserve_fit_share_total{event="hit"}`:            1,
		`lvserve_fit_share_total{event="adopted"}`:        1,
		`lvserve_fit_share_total{event="delegated"}`:      1,
		`lvserve_fit_share_total{event="local"}`:          1,
		`lvserve_policy_computes_total{event="computed"}`: 1,
		`lvserve_policy_computes_total{event="cached"}`:   1,
	}
	if !reflect.DeepEqual(total, want) {
		t.Errorf("share counters over the script = %v, want %v", total, want)
	}
}
