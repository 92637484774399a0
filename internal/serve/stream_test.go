package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"lasvegas"
)

// postStream POSTs an NDJSON campaign stream to /v1/campaigns.
func postStream(t *testing.T, ts *httptest.Server, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/x-ndjson", body)
	if err != nil {
		t.Fatalf("stream POST: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream POST: reading body: %v", err)
	}
	return resp.StatusCode, data
}

// ndjsonOf renders a campaign in the NDJSON stream wire format.
func ndjsonOf(t *testing.T, c *lasvegas.Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamingIngest streams the Costas fixture into a daemon whose
// buffered-body cap is far smaller than the stream — proving NDJSON
// uploads bypass MaxBodyBytes entirely — then fits and predicts
// against the sketch-backed campaign and checks the fit agrees with
// the raw upload's (the 200-run fixture is below the sketch capacity,
// so the sketch is exact).
func TestStreamingIngest(t *testing.T) {
	// 512 B would reject the ~4 KiB fixture on the buffered path.
	ts := newConfigServer(t, Config{MaxBodyBytes: 512})
	c, err := lasvegas.LoadCampaign(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	stream := ndjsonOf(t, c)
	if int64(len(stream)) <= 512 {
		t.Fatalf("fixture stream is only %d bytes; the test needs it over the body cap", len(stream))
	}
	status, body := postStream(t, ts, bytes.NewReader(stream))
	if status != http.StatusOK {
		t.Fatalf("stream upload: status %d, body %s", status, body)
	}
	var sr campaignResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Sketched || sr.Runs != len(c.Iterations) || sr.Problem != "costas-13" {
		t.Fatalf("stream response %+v, want a sketched costas-13 campaign with %d runs", sr, len(c.Iterations))
	}

	type bestModel struct {
		Family    string  `json:"family"`
		Mean      float64 `json:"mean"`
		Estimator string  `json:"estimator"`
	}
	fit := func(ts *httptest.Server, id string) bestModel {
		status, body := post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id)))
		if status != http.StatusOK {
			t.Fatalf("fit %s: status %d, body %s", id, status, body)
		}
		var fr struct {
			Best *bestModel `json:"best"`
		}
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.Best == nil {
			t.Fatalf("fit %s returned no accepted model", id)
		}
		return *fr.Best
	}
	sketchFit := fit(ts, sr.ID)
	if sketchFit.Estimator != lasvegas.EstimatorSketch {
		t.Errorf("sketch fit estimator %q, want %q", sketchFit.Estimator, lasvegas.EstimatorSketch)
	}

	// Raw upload of the same campaign (default caps elsewhere).
	raw := newTestServer(t)
	rawFit := fit(raw, uploadFixture(t, raw))
	if sketchFit.Family != rawFit.Family {
		t.Errorf("sketch fit chose %s, raw fit %s", sketchFit.Family, rawFit.Family)
	}
	// The exact sketch reconstructs the sample, so the fitted mean can
	// differ only by floating-point summation order.
	if s, r := sketchFit.Mean, rawFit.Mean; math.Abs(s-r) > 1e-9*r {
		t.Errorf("sketch fit mean %v vs raw fit mean %v", s, r)
	}

	status, body = get(t, ts, "/v1/predict?id="+sr.ID+"&cores=16,64&quantile=0.5&target=8")
	if status != http.StatusOK {
		t.Fatalf("predict on sketch campaign: status %d, body %s", status, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Speedups) != 2 || pr.Speedups[1].Speedup <= pr.Speedups[0].Speedup {
		t.Errorf("predict speedups %+v, want 2 increasing rows", pr.Speedups)
	}
}

// TestStreamShardsMergeByID streams two annotated shard campaigns
// separately and pools them with {"merge_ids": [...]}: the merged
// campaign must hash to the same content id as a single unsharded
// stream of the whole sample — exact-mode sketches merge
// byte-identically, and the complete in-order shard cover lets the
// pooled campaign keep its seed.
func TestStreamShardsMergeByID(t *testing.T) {
	ts := newTestServer(t)
	c, err := lasvegas.LoadCampaign(fixturePath)
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
	var ids []string
	for i, s := range []*lasvegas.Campaign{shard(0, 0, half), shard(1, half, len(c.Iterations))} {
		status, body := postStream(t, ts, bytes.NewReader(ndjsonOf(t, s)))
		if status != http.StatusOK {
			t.Fatalf("shard %d stream: status %d, body %s", i, status, body)
		}
		var cr campaignResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, cr.ID)
	}
	if ids[0] == ids[1] {
		t.Fatalf("distinct shards got one id %q", ids[0])
	}

	mergeReq, _ := json.Marshal(map[string][]string{"merge_ids": ids})
	status, body := post(t, ts, "/v1/campaigns", mergeReq)
	if status != http.StatusOK {
		t.Fatalf("merge_ids: status %d, body %s", status, body)
	}
	var merged campaignResponse
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Merged != 2 || merged.Runs != len(c.Iterations) || !merged.Sketched {
		t.Fatalf("merge_ids response %+v, want 2 sketched shards pooling %d runs", merged, len(c.Iterations))
	}

	// The unsharded stream of the same sample.
	full := &lasvegas.Campaign{
		Problem:    c.Problem,
		Size:       c.Size,
		Runs:       len(c.Iterations),
		Seed:       c.Seed,
		Iterations: c.Iterations,
	}
	status, body = postStream(t, ts, bytes.NewReader(ndjsonOf(t, full)))
	if status != http.StatusOK {
		t.Fatalf("full stream: status %d, body %s", status, body)
	}
	var fullResp campaignResponse
	if err := json.Unmarshal(body, &fullResp); err != nil {
		t.Fatal(err)
	}
	if merged.ID != fullResp.ID {
		t.Errorf("merged shard streams id %q != single-stream id %q (sketch merge must reconstruct the stream exactly)",
			merged.ID, fullResp.ID)
	}
}

// TestStreamLargeBoundedMemory pipes a 100k-run stream — two orders
// of magnitude over the buffered-body cap — through the ingest path
// and checks the campaign the daemon actually stores is a small
// sketch, not the sample: the canonical bytes on the healthz gauge
// must come in far under the wire volume.
func TestStreamLargeBoundedMemory(t *testing.T) {
	ts := newConfigServer(t, Config{MaxBodyBytes: 1024})
	const runs = 100_000
	pr, pw := io.Pipe()
	var wire int64
	go func() {
		cw := &countWriter{w: pw}
		enc := json.NewEncoder(cw)
		enc.Encode(map[string]any{"stream": 1, "problem": "synthetic-heavy", "runs": runs})
		for i := 0; i < runs; i++ {
			// A deterministic heavy-tailed-ish spread; no randomness
			// needed to exercise the compactors.
			enc.Encode(map[string]any{"iterations": float64(1 + (i*7919)%999983)})
		}
		wire = cw.n
		pw.Close()
	}()
	status, body := postStream(t, ts, pr)
	if status != http.StatusOK {
		t.Fatalf("large stream: status %d, body %s", status, body)
	}
	var cr campaignResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Runs != runs || !cr.Sketched {
		t.Fatalf("large stream response %+v, want %d sketched runs", cr, runs)
	}
	_, hb := get(t, ts, "/v1/healthz")
	var hr healthResponse
	if err := json.Unmarshal(hb, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Bytes <= 0 || hr.Bytes > wire/8 {
		t.Errorf("stored %d canonical bytes for a %d-byte stream; a sketch-backed campaign must be far smaller", hr.Bytes, wire)
	}

	// The sketch-backed campaign is fittable end to end.
	status, body = post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, cr.ID)))
	if status != http.StatusOK && status != http.StatusUnprocessableEntity {
		t.Fatalf("fit on 100k-run sketch: status %d, body %s", status, body)
	}
}

// TestStreamOverflowInRecords caps a stream well past its header, so
// MaxStreamBytes runs out among the records rather than inside the
// header: the reader must pass the overflow through for a 413, not
// turn the cut record into a 400, and nothing of the stream may be
// stored. A stream of the records that fit under the cap is the
// control: it is accepted.
func TestStreamOverflowInRecords(t *testing.T) {
	const limit = 4096
	ts := newConfigServer(t, Config{MaxStreamBytes: limit})
	hdr := `{"stream":1,"problem":"overflow"}` + "\n"
	var stream bytes.Buffer
	stream.WriteString(hdr)
	fit := 0
	for i := 0; stream.Len() <= 2*limit; i++ {
		stream.WriteString(fmt.Sprintf(`{"iterations":%d}`+"\n", 1000+i))
		if stream.Len() <= limit {
			fit++
		}
	}
	if fit < 10 {
		t.Fatalf("only %d records fit under the cap; the overflow must come well after the header", fit)
	}
	status, body := postStream(t, ts, bytes.NewReader(stream.Bytes()))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("stream over MaxStreamBytes: status %d, body %s; want 413", status, body)
	}
	_, hb := get(t, ts, "/v1/healthz")
	var hr healthResponse
	if err := json.Unmarshal(hb, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Campaigns != 0 {
		t.Errorf("store holds %d campaigns after a rejected stream, want 0", hr.Campaigns)
	}

	prefix := stream.Bytes()[:bytes.LastIndexByte(stream.Bytes()[:limit], '\n')+1]
	status, body = postStream(t, ts, bytes.NewReader(prefix))
	if status != http.StatusOK {
		t.Fatalf("stream under MaxStreamBytes: status %d, body %s", status, body)
	}
	var cr campaignResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Runs != fit {
		t.Errorf("stream under the cap stored %d runs, want %d", cr.Runs, fit)
	}
}

// countWriter counts bytes on their way into the pipe.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// TestStreamDurableRestart replays a streamed (sketch-backed)
// campaign from the snapshot log: after a restart the daemon must
// serve the same id with a byte-identical fit response.
func TestStreamDurableRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := lasvegas.LoadCampaign(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var id string
	var fits [2][]byte
	for i := 0; i < 2; i++ {
		srv, err := New(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		if i == 0 {
			status, body := postStream(t, ts, bytes.NewReader(ndjsonOf(t, c)))
			if status != http.StatusOK {
				t.Fatalf("stream upload: status %d, body %s", status, body)
			}
			var cr campaignResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				t.Fatal(err)
			}
			id = cr.ID
		}
		status, body := post(t, ts, "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id)))
		if status != http.StatusOK {
			t.Fatalf("fit (boot %d): status %d, body %s", i, status, body)
		}
		fits[i] = body
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(fits[0], fits[1]) {
		t.Errorf("sketch-backed fit responses differ across restarts:\n%s\nvs\n%s", fits[0], fits[1])
	}
}

// TestStatusForStreamErrors locks the new status mappings statusFor
// grew with streaming ingest: body/stream overflow 413, sketch-backed
// campaigns asked for raw runs 422, malformed streams 400.
func TestStatusForStreamErrors(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&http.MaxBytesError{Limit: 1}, http.StatusRequestEntityTooLarge},
		{fmt.Errorf("serve: reading body: %w", &http.MaxBytesError{Limit: 1}), http.StatusRequestEntityTooLarge},
		{fmt.Errorf("wrap: %w", lasvegas.ErrNoRawRuns), http.StatusUnprocessableEntity},
		{fmt.Errorf("wrap: %w", lasvegas.ErrStream), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
