package lasvegas_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"lasvegas"
)

// streamOf renders a campaign in the NDJSON wire format.
func streamOf(t *testing.T, c *lasvegas.Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNDJSONRoundTrip streams the committed Costas fixture out and
// back: the sketch-backed campaign must carry the header fields, the
// full run count, and — the fixture being smaller than the sketch
// capacity — the exact sample, quantile for quantile.
func TestNDJSONRoundTrip(t *testing.T) {
	c, err := lasvegas.LoadCampaign("testdata/campaign_costas13.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := lasvegas.ReadCampaignNDJSON(bytes.NewReader(streamOf(t, c)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Problem != c.Problem || got.Size != c.Size || got.Seed != c.Seed {
		t.Errorf("header fields: got %s/%d/%d, want %s/%d/%d",
			got.Problem, got.Size, got.Seed, c.Problem, c.Size, c.Seed)
	}
	if got.TotalRuns() != len(c.Iterations) || len(got.Iterations) != 0 || !got.HasSketch() {
		t.Fatalf("want a sketch-backed campaign of %d runs, got %d raw + sketch %v",
			len(c.Iterations), len(got.Iterations), got.HasSketch())
	}
	sk, err := got.RuntimeSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	if !sk.Exact() {
		t.Fatalf("a %d-run stream under the default capacity must stay exact", len(c.Iterations))
	}
	ref, err := c.RuntimeSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if g, w := sk.Quantile(p), ref.Quantile(p); g != w {
			t.Errorf("Quantile(%v) = %v, want %v", p, g, w)
		}
	}
}

// TestNDJSONStreamErrors locks the failure modes of the wire format:
// censored and sketch-only campaigns cannot emit, and malformed
// streams fail with ErrStream rather than producing a silently
// smaller campaign.
func TestNDJSONStreamErrors(t *testing.T) {
	censored := &lasvegas.Campaign{
		Problem: "x", Runs: 2, Iterations: []float64{5, 5},
		Censored: []int{1}, Budget: 5,
	}
	if err := censored.WriteNDJSON(io.Discard); !errors.Is(err, lasvegas.ErrCensored) {
		t.Errorf("censored WriteNDJSON: %v, want ErrCensored", err)
	}
	sketchOnly, err := (&lasvegas.Campaign{
		Problem: "x", Runs: 3, Iterations: []float64{1, 2, 3},
	}).Sketchify(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sketchOnly.WriteNDJSON(io.Discard); !errors.Is(err, lasvegas.ErrNoRawRuns) {
		t.Errorf("sketch-only WriteNDJSON: %v, want ErrNoRawRuns", err)
	}

	read := func(s string) error {
		_, err := lasvegas.ReadCampaignNDJSON(strings.NewReader(s), 0)
		return err
	}
	cases := []struct {
		name   string
		stream string
		want   error
	}{
		{"empty", "", lasvegas.ErrStream},
		{"no header", `{"iterations":1}` + "\n", lasvegas.ErrStream},
		{"future version", `{"stream":99,"problem":"x"}` + "\n" + `{"iterations":1}` + "\n", lasvegas.ErrStream},
		{"header only", `{"stream":1,"problem":"x"}` + "\n", lasvegas.ErrEmptyCampaign},
		{"record missing iterations", `{"stream":1}` + "\n" + `{"seconds":0.5}` + "\n", lasvegas.ErrStream},
		{"non-finite iterations", `{"stream":1}` + "\n" + `{"iterations":1e999}` + "\n", lasvegas.ErrStream},
		{"truncated record", `{"stream":1}` + "\n" + `{"iterations":1}` + "\n" + `{"iterat`, lasvegas.ErrStream},
		{"declared-count mismatch", `{"stream":1,"runs":3}` + "\n" + `{"iterations":1}` + "\n" + `{"iterations":2}` + "\n", lasvegas.ErrStream},
	}
	for _, tc := range cases {
		if err := read(tc.stream); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestNDJSONCanonicalRecordsSkipDecoder pins the fast path: records as
// WriteNDJSON writes them are parsed without encoding/json, which
// costs allocations per record, so a 5k-record stream allocates a few
// hundred times in all (header, buffer, sketch levels), not thousands.
func TestNDJSONCanonicalRecordsSkipDecoder(t *testing.T) {
	const runs = 5000
	c := &lasvegas.Campaign{Problem: "x", Runs: runs, Iterations: make([]float64, runs), Seconds: make([]float64, runs)}
	for i := range c.Iterations {
		c.Iterations[i] = float64(1 + (i*7919)%999983)
		c.Seconds[i] = c.Iterations[i] / 1e6
	}
	stream := streamOf(t, c)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := lasvegas.ReadCampaignNDJSON(bytes.NewReader(stream), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > runs/10 {
		t.Errorf("reading %d canonical records made %.0f allocations; the decoder path makes ~2 per record", runs, allocs)
	}
}

// TestNDJSONBoundedMemory pipes a 120k-run stream — well past the
// acceptance floor — through ReadCampaignNDJSON and checks the result
// is a sketch within its retention bound, not the sample: the stream
// is never materialized, and the campaign's canonical bytes stay two
// orders of magnitude under the wire volume.
func TestNDJSONBoundedMemory(t *testing.T) {
	const runs = 120_000
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		enc.Encode(map[string]any{"stream": 1, "problem": "synthetic", "runs": runs})
		for i := 0; i < runs; i++ {
			enc.Encode(map[string]any{"iterations": float64(1 + (i*7919)%999983)})
		}
		pw.Close()
	}()
	c, err := lasvegas.ReadCampaignNDJSON(pr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalRuns() != runs || len(c.Iterations) != 0 {
		t.Fatalf("got %d total runs and %d raw, want %d sketch-only", c.TotalRuns(), len(c.Iterations), runs)
	}
	sk, err := c.RuntimeSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	k := float64(lasvegas.DefaultSketchK)
	bound := int(k * (math.Log2(float64(runs)/k) + 2))
	if sk.Retained() > bound {
		t.Errorf("sketch retains %d of %d values, over the %d bound — the stream leaked into memory", sk.Retained(), runs, bound)
	}
	canonical, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	// ~18 bytes per raw run would be ≥ 2 MiB; the sketch must stay
	// far below the sample it summarizes.
	if len(canonical) > runs*18/10 {
		t.Errorf("canonical sketch campaign is %d bytes for a %d-run stream — not O(1) in the stream", len(canonical), runs)
	}
	if err := sk.ErrorBound(); err > 0.02 {
		t.Errorf("rank-error bound %v, want ≤ 2%% at the default capacity", err)
	}
}

// TestNDJSONShardMergeEqualsSingleStream is the sharded-ingest
// contract: shard streams read separately and pooled with Merge are
// byte-identical — canonical JSON and content id alike — to one
// unsharded stream of the whole sample, while every sketch is exact.
func TestNDJSONShardMergeEqualsSingleStream(t *testing.T) {
	c, err := lasvegas.LoadCampaign("testdata/campaign_costas13.json")
	if err != nil {
		t.Fatal(err)
	}
	half := len(c.Iterations) / 2
	shard := func(i, lo, hi int) *lasvegas.Campaign {
		return &lasvegas.Campaign{
			Problem:    c.Problem,
			Size:       c.Size,
			Runs:       hi - lo,
			Seed:       c.Seed,
			Iterations: c.Iterations[lo:hi],
			Metadata: map[string]string{
				"lasvegas.shard":      fmt.Sprintf("%d/2", i),
				"lasvegas.shard.runs": fmt.Sprintf("%d", len(c.Iterations)),
			},
		}
	}
	var read [2]*lasvegas.Campaign
	for i, s := range []*lasvegas.Campaign{shard(0, 0, half), shard(1, half, len(c.Iterations))} {
		read[i], err = lasvegas.ReadCampaignNDJSON(bytes.NewReader(streamOf(t, s)), 0)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	merged, err := read[0].Merge(read[1])
	if err != nil {
		t.Fatal(err)
	}
	full := &lasvegas.Campaign{
		Problem: c.Problem, Size: c.Size, Runs: len(c.Iterations),
		Seed: c.Seed, Iterations: c.Iterations,
	}
	single, err := lasvegas.ReadCampaignNDJSON(bytes.NewReader(streamOf(t, full)), 0)
	if err != nil {
		t.Fatal(err)
	}
	mergedJSON, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	singleJSON, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedJSON, singleJSON) {
		t.Errorf("merged shard streams differ from the single stream:\n%s\nvs\n%s", mergedJSON, singleJSON)
	}
	if merged.Seed != c.Seed {
		t.Errorf("complete shard cover lost the seed: %d", merged.Seed)
	}
}
