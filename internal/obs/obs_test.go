package obs

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixture assembles a registry with every metric kind holding
// fixed values — the scrape the golden file pins down.
func buildFixture() *Registry {
	r := NewRegistry()
	req := r.Counter("lvserve_requests_total", "Requests served, by route and status class.", "route", "status")
	req.With("/v1/fit", "2xx").Add(42)
	req.With("/v1/fit", "4xx").Inc()
	req.With("/v1/campaigns", "2xx").Add(7)
	r.GaugeFunc("lvserve_hints_queue_depth", "Hinted-handoff writes awaiting redelivery.", func() float64 { return 3 })
	lat := r.Histogram("lvserve_request_latency_seconds", "lvserve_request_latency_quantile_seconds",
		"Request latency by route, sketch-backed.", "route")
	h := lat.With("/v1/fit")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000) // 1ms .. 100ms, exact mode
	}
	lat.With("/v1/predict") // registered, never observed: buckets only, no quantiles
	return r
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixture().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./internal/obs -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered metrics differ from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

func TestRenderIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	reg := buildFixture()
	if err := reg.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two scrapes of identical state rendered differently")
	}
}

// TestConcurrentMutation hammers every metric kind from many
// goroutines while a scraper renders — the race detector is the
// assertion (the CI race job runs this package).
func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "worker")
	hv := r.Histogram("h_seconds", "h_quantile_seconds", "", "worker")
	var depth sync.Map
	r.GaugeFunc("g", "", func() float64 {
		n := 0.0
		depth.Range(func(_, _ any) bool { n++; return true })
		return n
	})

	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < per; i++ {
				c.With(label).Inc()
				hv.With(label).Observe(float64(i) / 1e4)
				depth.Store(w*per+i, struct{}{})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	total := int64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		total += c.With(l).Value()
	}
	if want := int64(workers * per); total != want {
		t.Errorf("counter total = %d, want %d", total, want)
	}
	if got := hv.With("a").Count(); got != workers/4*per {
		t.Errorf("histogram a count = %d, want %d", got, workers/4*per)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", "").With()
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram p50 = %v, want NaN", q)
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	// Exact mode ends at the sketch capacity (1024 > 1000): quantiles
	// are the exact order statistics.
	if q := h.Quantile(0.5); q != 500 {
		t.Errorf("p50 = %v, want 500", q)
	}
	if q := h.Quantile(0.99); q != 990 {
		t.Errorf("p99 = %v, want 990", q)
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(-1)
	if got := h.Count(); got != 1000 {
		t.Errorf("count after junk observations = %d, want 1000", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixture().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(`lvserve_requests_total{route="/v1/fit",status="2xx"}`); !ok || v != 42 {
		t.Errorf("fit 2xx = %v, %v; want 42, true", v, ok)
	}
	if !s.HasFamily("lvserve_hints_queue_depth") {
		t.Error("gauge family missing from parse")
	}
	p99, ok := s.MaxLabeled("lvserve_request_latency_quantile_seconds", `quantile="0.99"`)
	if !ok || p99 != 0.099 {
		t.Errorf("parsed p99 = %v, %v; want 0.099, true", p99, ok)
	}
	if _, ok := s.Get(`lvserve_request_latency_seconds_count{route="/v1/fit"}`); !ok {
		t.Error("histogram count series missing from parse")
	}
}

func TestParseRejectsJunk(t *testing.T) {
	for _, bad := range []string{"name_only", "name{a=\"b\"} not-a-number"} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", bad)
		}
	}
}

func TestTrace(t *testing.T) {
	ctx := context.Background()
	if Trace(ctx) != "" {
		t.Error("empty context carries a trace ID")
	}
	id := NewTraceID()
	if len(id) != 16 {
		t.Errorf("trace ID %q: want 16 hex chars", id)
	}
	if id2 := NewTraceID(); id2 == id {
		t.Errorf("two trace IDs collided: %q", id)
	}
	if got := Trace(WithTrace(ctx, id)); got != id {
		t.Errorf("Trace round-trip = %q, want %q", got, id)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "v").With(`a"b\c` + "\n").Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{v="a\"b\\c\n"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("rendered %q, want a line %q", buf.String(), want)
	}
}
