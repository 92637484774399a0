// Package store is the lvserve daemon's campaign store: the layer
// that turns the paper's retained runtime-distribution corpus
// (Hoos & Stützle argue the RTD sample itself — not any one fit — is
// the asset worth keeping) into something a service can own.
//
// A Store holds campaigns keyed by the content hash of their
// canonical JSON and hands out *Entry values. An entry caches what is
// derived from its campaign in once-cells of one type, Cell: the
// local fit, and the rendered /v1/fit and /v1/policy bodies. A cell
// runs one compute at a time, caches every outcome but a
// cancellation, can be peeked without blocking, and never holds a
// Gate slot, so every campaign is fitted at most once per process no
// matter how many requests race for it. Two implementations share the
// interface:
//
//   - Memory — the process-local cache PR 3 shipped: a FIFO-bounded
//     map, gone on exit.
//   - Disk — Memory plus durability: every accepted campaign's
//     canonical bytes are appended to an fsync'd snapshot log that is
//     replayed on Open, so a restarted daemon serves the same corpus
//     (and, fits being deterministic, byte-identical responses)
//     without any re-upload.
//
// The package also owns the replica-routing arithmetic: Owner maps a
// campaign id onto one of n replicas by partitioning the 64-bit hash
// space into contiguous ranges (see Owner, ShardRange), and Owners
// generalizes that into a k-entry preference list (the owning range
// plus the next k-1 ranges around the ring), which is what lets
// several lvserve processes serve one corpus with each campaign
// stored — and fitted — on k of them. Hints is the hinted-handoff
// journal that rides along: a durable queue of replicated writes
// destined for a peer that was down when the write was accepted,
// drained (idempotently — ids are content hashes, so redelivery
// dedups) when the peer returns.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lasvegas"
)

// ErrUnknownCampaign reports a campaign id the store has never seen
// (or has evicted). The HTTP layer maps it to 404.
var ErrUnknownCampaign = errors.New("store: unknown campaign id")

// Store is a campaign/model store: content-addressed campaigns in,
// single-flight-fittable entries out. Implementations are safe for
// concurrent use.
type Store interface {
	// Add stores a campaign under its content id, deduplicating
	// re-uploads, and returns its entry. When the store is at
	// capacity the oldest entry is evicted first (FIFO).
	Add(c *lasvegas.Campaign) (*Entry, error)
	// AddEncoded is Add for a caller that already ran Encode (the
	// serve layer does, for replica routing), sparing the second
	// canonical marshal.
	AddEncoded(id string, data []byte, c *lasvegas.Campaign) (*Entry, error)
	// Get returns the entry for id, or an error wrapping
	// ErrUnknownCampaign.
	Get(id string) (*Entry, error)
	// IDs lists the resident campaign ids, sorted — the raw material
	// for anti-entropy range digests.
	IDs() []string
	// Len reports the number of resident campaigns.
	Len() int
	// Stats reports occupancy and durability counters for healthz.
	Stats() Stats
	// Close releases any resources (the Disk store's log handle).
	// The store must not be used afterwards.
	Close() error
}

// Stats is a Store's health snapshot, served by GET /v1/healthz.
type Stats struct {
	// Campaigns is the number of resident campaigns.
	Campaigns int
	// Bytes is the canonical-JSON volume behind those campaigns; for
	// the Disk store it is the snapshot-log size on disk (which also
	// counts evicted or superseded records awaiting compaction).
	Bytes int64
	// Replayed counts the campaigns recovered from the snapshot log
	// at Open (0 for Memory stores and fresh data dirs).
	Replayed int
	// ReplayDuration is how long that recovery took.
	ReplayDuration time.Duration
}

// Encode returns a campaign's deterministic content id together with
// the canonical JSON bytes it was derived from — the exact bytes a
// Disk store persists and a replica forwards. The id is SHA-256
// (truncated to 128 bits), not a cheap hash: stores dedup purely by
// id, so a constructible collision would silently alias one client's
// campaign to another's cached model.
func Encode(c *lasvegas.Campaign) (id string, data []byte, err error) {
	data, err = c.MarshalJSON()
	if err != nil {
		return "", nil, err
	}
	return idOfBytes(data), data, nil
}

// Decode reads a campaign from canonical bytes — what Encode writes,
// a Disk store persists and a replica receives. It calls the
// campaign's own decoder directly, so the bytes skip the validity scan
// encoding/json makes over a whole value before decoding it; a shape
// other than the canonical one still goes through encoding/json
// inside that decoder, with the same result or error.
func Decode(data []byte) (*lasvegas.Campaign, error) {
	c := &lasvegas.Campaign{}
	if err := c.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return c, nil
}

// idOfBytes hashes the exact canonical bytes — the same bytes the
// Disk store persists, so an id computed at upload time and one
// recomputed from the replayed log line always agree.
func idOfBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return "c" + hex.EncodeToString(sum[:16])
}

// --- replica routing ----------------------------------------------

// Owner maps a campaign id onto the replica that stores and fits it:
// the 64-bit FNV-1a hash of the id, bucketed into `replicas`
// contiguous ranges of the hash space. Every replica evaluates the
// same pure function, so no coordination — only an agreed replica
// count — is needed for all of them to route consistently.
// A non-positive or single replica count always owns everything.
func Owner(id string, replicas int) int {
	if replicas <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() / rangeWidth(replicas))
}

// Owners generalizes Owner into a preference list: the replica whose
// hash range owns id, followed by the replicas owning the next k-1
// ranges around the ring (wrapping past replica n-1 back to 0). The
// serve layer writes a campaign to every owner on the list and reads
// it from the first live one, so losing any single replica loses no
// id as long as k ≥ 2. k is clamped to [1, replicas]; like Owner, the
// function is pure, so every replica computes the same list without
// coordination.
func Owners(id string, replicas, k int) []int {
	replicas, k = clamp(replicas, k)
	owners := make([]int, k)
	first := Owner(id, replicas)
	for i := range owners {
		owners[i] = (first + i) % replicas
	}
	return owners
}

// RangeOwners lists the replicas holding copies of hash range r: the
// range's own replica plus the next k-1 around the ring — the same
// ring walk as Owners, but keyed by range rather than by id, so the
// anti-entropy exchanger knows which peers to compare a range with.
func RangeOwners(r, replicas, k int) []int {
	replicas, k = clamp(replicas, k)
	owners := make([]int, k)
	for i := range owners {
		owners[i] = (r + i) % replicas
	}
	return owners
}

// OwnedRanges lists the hash ranges replica self holds copies of
// under k-way replication: its own range plus the k-1 ranges
// preceding it around the ring (the inverse of RangeOwners),
// ascending. These are exactly the ranges self must keep converged.
func OwnedRanges(self, replicas, k int) []int {
	replicas, k = clamp(replicas, k)
	ranges := make([]int, k)
	for i := range ranges {
		ranges[i] = ((self-i)%replicas + replicas) % replicas
	}
	sort.Ints(ranges)
	return ranges
}

// clamp bounds a group shape: at least one replica, and k in
// [1, replicas].
func clamp(replicas, k int) (int, int) {
	replicas = max(replicas, 1)
	return replicas, min(max(k, 1), replicas)
}

// ShardRange returns the half-open [lo, hi] bounds of the hash range
// replica `index` of `replicas` owns (hi is inclusive for the last
// replica so the whole uint64 space is covered).
func ShardRange(index, replicas int) (lo, hi uint64) {
	if replicas <= 1 {
		return 0, ^uint64(0)
	}
	w := rangeWidth(replicas)
	lo = uint64(index) * w
	if index >= replicas-1 {
		return lo, ^uint64(0)
	}
	return lo, lo + w - 1
}

// rangeWidth is the hash-range width of one replica: ceil(2^64 / n)
// computed without overflow, so ids at the very top of the space
// still land on replica n-1.
func rangeWidth(replicas int) uint64 {
	return ^uint64(0)/uint64(replicas) + 1
}

// --- entries and their once-cells ---------------------------------

// Entry is one stored campaign and the outcomes cached on it. The
// cells ride the entry, so they evict with the campaign.
type Entry struct {
	// ID is the campaign's content id.
	ID string
	// Campaign is the stored campaign. Treat as immutable: mutating
	// it would silently divorce the entry from its content id.
	Campaign *lasvegas.Campaign

	// Fit is this process's own fit of the campaign: the ranked
	// candidate table, or the fit's deterministic error
	// (lasvegas.ErrCensored, ErrNoAcceptableFit).
	Fit Cell[[]lasvegas.Candidate]
	// FitView and PolicyView are the rendered /v1/fit and /v1/policy
	// bodies.
	FitView, PolicyView Cell[Rendered]
}

// Rendered is a response as a view cell caches it.
type Rendered struct {
	Status int
	Body   []byte
	// Adopted marks a body a peer replica rendered from its own fit.
	Adopted bool
}

func newEntry(id string, c *lasvegas.Campaign) *Entry {
	return &Entry{ID: id, Campaign: c}
}

// Cell is a single-flight once-cell, the one cache behind every
// outcome an Entry holds. Its rules:
//
//   - one compute per cell at a time: concurrent callers wait for the
//     compute in flight and share its outcome;
//   - every outcome is cached, errors included (the computes are
//     deterministic per campaign), except context.Canceled and
//     context.DeadlineExceeded: a caller that gave up must not poison
//     the cell, so the next caller computes again;
//   - Peek never blocks and never computes;
//   - the cell never holds a Gate slot; a compute that needs one
//     claims its own. A compute may run another cell's (the policy
//     view runs the fit), and a cell that held a slot across it would
//     deadlock a one-slot gate.
//
// The zero value is an empty cell.
type Cell[T any] struct {
	mu  sync.Mutex                 // held by the compute in flight
	out atomic.Pointer[outcome[T]] // set once an outcome is cached
}

type outcome[T any] struct {
	v   T
	err error
}

// Do returns the cell's cached outcome, or runs fn to produce it.
// computed reports whether this call ran fn. fn runs under the cell's
// lock, so it must not call Do on the same cell.
func (c *Cell[T]) Do(fn func() (T, error)) (v T, computed bool, err error) {
	if o := c.out.Load(); o != nil {
		return o.v, false, o.err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if o := c.out.Load(); o != nil {
		return o.v, false, o.err
	}
	v, err = fn()
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		c.out.Store(&outcome[T]{v, err})
	}
	return v, true, err
}

// Peek returns the cached outcome; done is false while there is none,
// including while a compute is in flight.
func (c *Cell[T]) Peek() (v T, done bool, err error) {
	if o := c.out.Load(); o != nil {
		return o.v, true, o.err
	}
	return v, false, nil
}

// Gate bounds how many fit, policy and collect jobs run at once: a
// counting semaphore whose Acquire honours ctx while waiting.
type Gate chan struct{}

// NewGate returns a gate admitting up to slots concurrent holders
// (minimum 1).
func NewGate(slots int) Gate {
	if slots < 1 {
		slots = 1
	}
	return make(Gate, slots)
}

// Acquire claims a slot, honouring ctx while waiting.
func (g Gate) Acquire(ctx context.Context) error {
	select {
	case g <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot claimed by Acquire.
func (g Gate) Release() { <-g }

// unknown wraps ErrUnknownCampaign with the offending id.
func unknown(id string) error {
	return fmt.Errorf("%w: %q", ErrUnknownCampaign, id)
}
