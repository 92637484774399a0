package main

// The span recorder of the traced run. Spans come only from this
// benchmark's files:
//   - each op is a root span, keyed by the trace id the op stamps on
//     its requests;
//   - every peer hop passes through the replicas' httptest handlers,
//     which this recorder wraps: the daemon forwards the trace id on
//     each hop, so a hop becomes a child span of the op that caused it;
//   - stages inside a handler are timed by stage replay: after an op,
//     the op's code re-invokes the public layer functions the handler
//     ran, on the same inputs, each in its own child span.
// Spans stay in memory and are written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lasvegas/internal/obs"
)

// span is one recorded interval. Kind is "op" for a root span, a
// peer-hop name ("peer.replicate", "peer.fit_share", "peer.other") or
// the per-layer metric a replayed or directly timed stage feeds.
type span struct {
	trace      string
	kind       string
	start, end time.Time
	hop        bool // a replayed stage that ran inside a peer hop
}

// maxKeptSpans bounds the spans kept for the span file; aggregates
// cover every span regardless.
const maxKeptSpans = 1 << 18

// tracer records spans while on; a nil *tracer is valid and records
// nothing, which is how untraced passes run.
type tracer struct {
	on atomic.Bool

	replayed atomic.Int64 // ns spent in stage replays

	mu       sync.Mutex
	ops      []span
	children map[string][]span // by trace id
	counts   map[string]float64
	kept     []span
}

func newTracer() *tracer {
	return &tracer{children: make(map[string][]span), counts: make(map[string]float64)}
}

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.kind == "op" {
		t.ops = append(t.ops, s)
	} else {
		t.children[s.trace] = append(t.children[s.trace], s)
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	}
}

// op records an op's root span.
func (t *tracer) op(trace string, start, end time.Time) {
	if t.active() {
		t.record(span{trace: trace, kind: "op", start: start, end: end})
	}
}

// stage runs fn in a child span of the op trace, feeding metric;
// while tracing is off it just runs fn. Stage replays call it after the
// op, so the op's own latency never includes them; hop marks a
// replayed stage that the daemon ran inside a peer hop, whose time
// the hop's span already covers.
func (t *tracer) stage(trace, metric string, hop bool, fn func() error) error {
	if !t.active() {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.record(span{trace: trace, kind: metric, start: start, end: time.Now(), hop: hop})
	return err
}

// replay runs a traced op's stage replays, which call stage; while
// tracing is off it does nothing. The time replays take is kept apart
// (replayTime), so that the traced pass's throughput — and with it
// trace.overhead_frac — leaves them out.
func (t *tracer) replay(fn func() error) error {
	if !t.active() {
		return nil
	}
	start := time.Now()
	err := fn()
	t.replayed.Add(int64(time.Since(start)))
	return err
}

// replayTime is the time spent in replay so far.
func (t *tracer) replayTime() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.replayed.Load())
}

// count adds v to a per-layer counter.
func (t *tracer) count(name string, v float64) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// peerHandler wraps a replica's peer-facing handler so each hop is
// recorded as a child span of the op whose trace id it carries.
func (t *tracer) peerHandler(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			h(w, r)
			return
		}
		start := time.Now()
		h(w, r)
		t.record(span{trace: r.Header.Get(obs.TraceHeader), kind: peerKind(r), start: start, end: time.Now()})
	})
}

// peerKind names the peer hop a request is.
func peerKind(r *http.Request) string {
	switch {
	case r.Header.Get("Lvserve-Replicate") != "":
		return "peer.replicate"
	case r.URL.Path == "/v1/internal/fit-cache", r.Header.Get("Lvserve-Fit-Delegate") != "":
		return "peer.fit_share"
	}
	return "peer.other"
}

// layers folds the recorded spans into per-op means: each stage
// metric in ms per op, peer.calls, peer.replicate_ms,
// peer.fit_share_ms, and serve.self_ms when served is set.
// serve.self_ms is an estimate: the op span minus the peer hops it
// covers, minus the replayed stages that ran outside those hops.
func (t *tracer) layers(served bool) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64)
	if len(t.ops) == 0 {
		return out
	}
	var self time.Duration
	for _, op := range t.ops {
		var hops []interval
		var staged time.Duration
		for _, c := range t.children[op.trace] {
			d := c.end.Sub(c.start)
			if strings.HasPrefix(c.kind, "peer.") {
				hops = append(hops, interval{c.start, c.end})
				out["peer.calls"]++
				if c.kind != "peer.other" {
					out[c.kind+"_ms"] += ms(d)
				}
				continue
			}
			if !c.hop {
				staged += d
			}
			out[c.kind] += ms(d)
		}
		if served {
			if s := selfTime(interval{op.start, op.end}, hops) - staged; s > 0 {
				self += s
			}
		}
	}
	if served {
		out["serve.self_ms"] = ms(self)
	}
	n := float64(len(t.ops))
	for k := range out {
		out[k] /= n
	}
	for k, v := range t.counts {
		out[k] = v / n
	}
	return out
}

// tracedOps is the number of root spans recorded.
func (t *tracer) tracedOps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ops)
}

// writeSpans writes the kept spans as JSON lines to path: trace id,
// kind, start offset from the first span and duration in µs, and the
// in-hop mark of replayed stages.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	if len(t.kept) > 0 {
		t0 = t.kept[0].start
	}
	for _, s := range t.kept {
		line, err := json.Marshal(struct {
			Trace   string  `json:"trace"`
			Kind    string  `json:"kind"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
			Hop     bool    `json:"hop,omitempty"`
		}{s.trace, s.kind, us(s.start.Sub(t0)), us(s.end.Sub(s.start)), s.hop})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
