package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smoke runs a workload at tiny sizes for one second per pass.
func smoke(t *testing.T, name string, trace int) *result {
	t.Helper()
	res, err := run(options{
		workload: name, seed: 7, seconds: 1, trace: trace,
		root: "..", work: t.TempDir(), small: true,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s --trace %d: %v", name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s --trace %d: %+v", name, trace, res)
	}
	return res
}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// sizes, answer checks and stage-replay checks included, and checks
// that each prints exactly the metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := findWorkload(w.Name); !ok {
				t.Fatalf("unknown workload %q", w.Name)
			}
			e2e := smoke(t, w.Name, 0)
			if len(e2e.Metrics) != len(s.EndToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(e2e.Metrics), len(s.EndToEnd))
			}
			for _, m := range s.EndToEnd {
				if got, ok := e2e.Metrics[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			traced := smoke(t, w.Name, 1)
			if len(traced.Metrics) != len(s.PerLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(traced.Metrics), len(s.PerLayer))
			}
			for _, m := range s.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}

// TestLayersMoveWhereExpected checks the traced run's layer split on
// the two served workloads: peer hops are rare on read-mostly
// (re-uploads only), and order statistics idle on ndjson-stream while
// fit, peer and policy work.
func TestLayersMoveWhereExpected(t *testing.T) {
	rm := smoke(t, "read-mostly", 1).Metrics
	if got := rm["peer.calls"].Value; !(got > 0 && got < 0.2) {
		t.Errorf("read-mostly peer.calls = %v per op, want a few re-uploads' worth", got)
	}
	if got := rm["orderstat.ms"].Value; !(got > 0) {
		t.Errorf("read-mostly orderstat.ms = %v, want > 0", got)
	}
	if got := rm["policy.cache_hit_frac"].Value; got != 1 {
		t.Errorf("read-mostly policy.cache_hit_frac = %v, want 1 (tables are warmed in set-up)", got)
	}
	nd := smoke(t, "ndjson-stream", 1).Metrics
	if got := nd["orderstat.ms"].Value; got != 0 {
		t.Errorf("ndjson-stream orderstat.ms = %v, want 0", got)
	}
	if got := nd["fit.computed_per_campaign"].Value; got != 1 {
		t.Errorf("ndjson-stream fit.computed_per_campaign = %v, want 1", got)
	}
	if got := nd["peer.calls"].Value; !(got >= 2) {
		t.Errorf("ndjson-stream peer.calls = %v per op, want a replication and a fit-cache probe at least", got)
	}
	if got := nd["policy.ms"].Value; !(got > 0) {
		t.Errorf("ndjson-stream policy.ms = %v, want > 0 (cold tables ride on every %dth op)", got, policyEvery)
	}
	if got := nd["policy.cache_hit_frac"].Value; got != 0 {
		t.Errorf("ndjson-stream policy.cache_hit_frac = %v, want 0 (every table is cold)", got)
	}
}

// TestWrongAnswersFail checks that the answer checks catch a wrong
// answer rather than pass it.
func TestWrongAnswersFail(t *testing.T) {
	e := env{root: "..", work: t.TempDir(), seed: 7, small: true, sums: sumBook{}}
	inst, err := setupReadMostly(e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(*readMostly)
	var m *member
	for _, c := range w.set {
		if c.ref.model != nil {
			m = c
			break
		}
	}
	if m == nil {
		t.Fatal("no campaign of the working set has an accepted fit")
	}
	a := w.predict(0, m, "lvb-test")
	if err := w.checkPredict(m, a); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	m.want[len(m.want)-1] *= 1 + 1e-12
	if err := w.checkPredict(m, a); err == nil {
		t.Error("a speed-up off by one part in 1e12 passed the predict check")
	}
	if err := m.ref.checkFit(200, []byte(`{"best":{"family":"exponential"}}`)); err == nil {
		t.Error("a wrong best model passed the fit check")
	}

	e.sums[0] = -1 // op 0 "once" summed to -1 iterations
	if _, err := setupPipeline(e); err == nil {
		t.Error("a changed iteration sum for a seed passed the collect check")
	}
}
