package main

// The system under test for the served workloads: a two-replica
// lvserve group with replication factor k=2, run in this process.
//
// Noise decisions, each recorded with its measurements in README.md:
//   - Peers reach each other through httptest servers on loopback,
//     because the daemon dials peer URLs; those hops are the program's
//     own traffic and stay on the wire.
//   - The client calls each replica's Handler().ServeHTTP in process,
//     alternating replicas per request. A loopback hop for the client
//     would add stdlib and kernel time that dilutes the program's.
//   - Anti-entropy is off: its timer would fire at an arbitrary point
//     of a run.
//   - Data dirs live under the checkout's build directory, so the
//     durable append-and-fsync path runs in full. (A run may write
//     only inside its checkout, so tmpfs is no way out.)
//   - Stores hold at most storeCampaigns campaigns, so the workloads
//     that keep adding campaigns reach the store's steady state (FIFO
//     eviction) within their first seconds. With the default 1024 the
//     heap, and the peak RSS, grew with the number of ops a run
//     completed.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"

	"lasvegas/internal/obs"
	"lasvegas/internal/serve"
)

const replicas = 2

// storeCampaigns is each replica's store capacity (Config.MaxCampaigns):
// above the read-mostly working set, far below what an ndjson-stream
// run uploads.
const storeCampaigns = 64

type group struct {
	dir string
	srv [replicas]*serve.Server
	h   [replicas]http.Handler
	ts  [replicas]*httptest.Server
}

// groupSeq numbers the data dirs of the groups one process boots.
var groupSeq atomic.Int64

// newGroup boots the group, with durable stores in data dirs under
// work. Peer hops pass through tr, which records them as spans while
// tracing is on.
func newGroup(work string, tr *tracer) (*group, error) {
	g := &group{dir: filepath.Join(work, fmt.Sprintf("data-%d-%d", os.Getpid(), groupSeq.Add(1)))}
	if err := os.MkdirAll(g.dir, 0o755); err != nil {
		return nil, err
	}
	var slots [replicas]atomic.Pointer[http.Handler]
	peers := make([]string, replicas)
	for i := range g.ts {
		slot := &slots[i]
		g.ts[i] = httptest.NewServer(tr.peerHandler(func(w http.ResponseWriter, r *http.Request) {
			(*slot.Load()).ServeHTTP(w, r)
		}))
		peers[i] = g.ts[i].URL
	}
	for i := range g.srv {
		s, err := serve.New(serve.Config{
			DataDir:             filepath.Join(g.dir, fmt.Sprintf("r%d", i)),
			ReplicaIndex:        i,
			ReplicaCount:        replicas,
			Peers:               peers,
			ReplicationFactor:   2,
			AntiEntropyInterval: -1,
			MaxCampaigns:        storeCampaigns,
		})
		if err != nil {
			g.close()
			return nil, err
		}
		g.srv[i] = s
		g.h[i] = s.Handler()
		slots[i].Store(&g.h[i])
	}
	return g, nil
}

// call serves one client request on replica r in process, stamped
// with the op's trace id, and returns the status and body.
func (g *group) call(r int, method, target, trace string, body io.Reader, hdr map[string]string) (int, []byte) {
	req := httptest.NewRequest(method, target, body)
	req.Header.Set(obs.TraceHeader, trace)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	g.h[r].ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// counters scrapes GET /v1/metrics on every replica and sums the
// series the per-layer metrics derive from.
func (g *group) counters() (map[string]float64, error) {
	series := []string{
		`lvserve_fit_share_total{event="local"}`,
		`lvserve_fit_share_total{event="delegated"}`,
		`lvserve_fit_share_total{event="hit"}`,
		`lvserve_fit_share_total{event="adopted"}`,
		`lvserve_policy_computes_total{event="computed"}`,
		`lvserve_policy_computes_total{event="cached"}`,
	}
	out := make(map[string]float64, len(series))
	for r := range g.h {
		status, body := g.call(r, "GET", "/v1/metrics", "lvbench-scrape", nil, nil)
		if status != http.StatusOK {
			return nil, fmt.Errorf("replica %d /v1/metrics: status %d", r, status)
		}
		s, err := obs.ParseText(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("replica %d /v1/metrics: %w", r, err)
		}
		for _, name := range series {
			v, _ := s.Get(name)
			out[name] += v
		}
	}
	return out, nil
}

// close shuts both replicas down, then their peer listeners, and
// removes the data dirs.
func (g *group) close() error {
	var first error
	for _, s := range g.srv {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, ts := range g.ts {
		if ts != nil {
			ts.Close()
		}
	}
	if err := os.RemoveAll(g.dir); err != nil && first == nil {
		first = err
	}
	return first
}
