package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{3}, 0.9); got != 3 {
		t.Errorf("percentile of one value = %v, want 3", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// at is a time ms milliseconds after a fixed origin.
func at(ms float64) time.Time {
	return time.Unix(1000, 0).Add(time.Duration(ms * float64(time.Millisecond)))
}

func TestSelfTime(t *testing.T) {
	parent := interval{at(0), at(10)}
	children := []interval{
		{at(1), at(3)},
		{at(2), at(4)},    // overlaps the first: union [1,4]
		{at(8), at(12)},   // sticks out: only [8,10] counts
		{at(-1), at(0.5)}, // starts before: only [0,0.5] counts
		{at(11), at(13)},  // wholly outside
	}
	if got, want := selfTime(parent, children), 4500*time.Microsecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 10*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 10ms", got)
	}
}

func TestLayersSelfTime(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	tr.record(span{trace: "a", kind: "peer.replicate", start: at(2), end: at(5)})
	tr.op("a", at(0), at(10))
	// A replayed stage outside any hop comes off the self time; one
	// that ran inside a hop is already covered by the hop's span.
	tr.record(span{trace: "a", kind: "store.append_ms", start: at(11), end: at(12)})
	tr.record(span{trace: "a", kind: "store.append_ms", start: at(12), end: at(14), hop: true})
	tr.op("b", at(20), at(22))
	tr.count("sketch.retained", 6)
	l := tr.layers(true)
	for name, want := range map[string]float64{
		"serve.self_ms":     (6 + 2) / 2.0,
		"peer.calls":        0.5,
		"peer.replicate_ms": 1.5,
		"store.append_ms":   1.5,
		"sketch.retained":   3,
	} {
		if math.Abs(l[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, l[name], want)
		}
	}
}

func TestDerive(t *testing.T) {
	before := map[string]float64{
		`lvserve_policy_computes_total{event="cached"}`:   10,
		`lvserve_policy_computes_total{event="computed"}`: 4,
		`lvserve_fit_share_total{event="local"}`:          2,
	}
	after := map[string]float64{
		`lvserve_policy_computes_total{event="cached"}`:   13,
		`lvserve_policy_computes_total{event="computed"}`: 5,
		`lvserve_fit_share_total{event="local"}`:          6,
		`lvserve_fit_share_total{event="delegated"}`:      4,
	}
	l := map[string]float64{"fit.campaigns": 1, "solver.collect_ms": 500, "solver.iters": 2000}
	derive(l, before, after, 8)
	for name, want := range map[string]float64{
		"policy.cache_hit_frac":     0.75,
		"fit.computed_per_campaign": 1,
		"solver.iters_per_s":        4000,
	} {
		if math.Abs(l[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, l[name], want)
		}
	}
}
