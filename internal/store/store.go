// Package store is the lvserve daemon's campaign store: the layer
// that turns the paper's retained runtime-distribution corpus
// (Hoos & Stützle argue the RTD sample itself — not any one fit — is
// the asset worth keeping) into something a service can own.
//
// A Store holds campaigns keyed by the content hash of their
// canonical JSON and hands out *Entry values that carry a
// single-flight fit cache, so every campaign is fitted at most once
// per process no matter how many requests race for it. Two
// implementations share the interface:
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
	if replicas < 1 {
		replicas = 1
	}
	if k < 1 {
		k = 1
	}
	if k > replicas {
		k = replicas
	}
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
	if replicas < 1 {
		replicas = 1
	}
	if k < 1 {
		k = 1
	}
	if k > replicas {
		k = replicas
	}
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
	if replicas < 1 {
		replicas = 1
	}
	if k < 1 {
		k = 1
	}
	if k > replicas {
		k = replicas
	}
	ranges := make([]int, k)
	for i := range ranges {
		ranges[i] = ((self-i)%replicas + replicas) % replicas
	}
	sort.Ints(ranges)
	return ranges
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

// --- entries and the single-flight fit cache ----------------------

// FitFunc computes a campaign's ranked candidate table and best
// accepted model. The store caches its outcome per entry.
type FitFunc func(c *lasvegas.Campaign) ([]lasvegas.Candidate, *lasvegas.Model, error)

// Entry is one stored campaign and its lazily-computed fit.
type Entry struct {
	// ID is the campaign's content id.
	ID string
	// Campaign is the stored campaign. Treat as immutable: mutating
	// it would silently divorce the entry from its content id.
	Campaign *lasvegas.Campaign

	fit    fitCell
	policy policyCell

	// adopted caches an opaque serve-layer value (a peer's rendered
	// fit response) adopted instead of computing locally; it rides the
	// entry so it evicts with the campaign.
	adopted atomic.Value
}

// FitOutcome is a completed fit's cached result, as reported by
// CachedFit. Exactly one of (Model, Err) describes the outcome: a
// deterministic fit error (ErrCensored, ErrNoAcceptableFit) is itself
// a cacheable outcome.
type FitOutcome struct {
	Candidates []lasvegas.Candidate
	Model      *lasvegas.Model
	Err        error
}

// CachedFit reports the entry's fit outcome without triggering or
// waiting for a computation: ok is false while no fit has completed,
// including while one is in flight. The serve layer answers peer
// fit-cache probes from this, so a probe can never be the thing that
// makes a replica burn a fit.
func (e *Entry) CachedFit() (out FitOutcome, ok bool) {
	return e.fit.peek()
}

// AdoptFit attaches an opaque non-nil value (the serve layer stores a
// peer's rendered fit response) to the entry. Adoption is
// last-writer-wins; fits being deterministic, every writer stores
// equivalent bytes.
func (e *Entry) AdoptFit(v any) { e.adopted.Store(v) }

// AdoptedFit returns the value stored by AdoptFit, or nil.
func (e *Entry) AdoptedFit() any { return e.adopted.Load() }

// Fit returns the entry's fit, computing it at most once
// (single-flight): concurrent callers for one campaign block on the
// same cell and all receive the identical cached outcome — including
// a cached fit error (ErrCensored, ErrNoAcceptableFit), which is
// deterministic for the campaign. The computation claims a slot on
// gate first; ctx bounds only that wait, and a caller cancelled while
// waiting does not poison the entry — the next caller simply retries.
func (e *Entry) Fit(ctx context.Context, gate Gate, fn FitFunc) ([]lasvegas.Candidate, *lasvegas.Model, error) {
	return e.fit.do(ctx, gate, e.Campaign, fn)
}

// fitCell is the single-flight once-cell behind Entry.Fit, kept
// unexported so implementations can hand out entries without exposing
// the cache fields.
type fitCell struct {
	mu     sync.Mutex // serializes the single-flight fit
	done   bool
	cands  []lasvegas.Candidate
	model  *lasvegas.Model
	fitErr error
}

func newEntry(id string, c *lasvegas.Campaign) *Entry {
	return &Entry{ID: id, Campaign: c}
}

func (f *fitCell) do(ctx context.Context, gate Gate, c *lasvegas.Campaign, fn FitFunc) ([]lasvegas.Candidate, *lasvegas.Model, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		if err := gate.Acquire(ctx); err != nil {
			return nil, nil, err
		}
		f.cands, f.model, f.fitErr = fn(c)
		gate.Release()
		f.done = true
	}
	if f.fitErr != nil {
		return nil, nil, f.fitErr
	}
	return f.cands, f.model, nil
}

// peek reports the cell's outcome if (and only if) a fit has
// completed. TryLock rather than Lock: a cell mid-computation is
// "nothing cached yet", not something worth blocking on.
func (f *fitCell) peek() (FitOutcome, bool) {
	if !f.mu.TryLock() {
		return FitOutcome{}, false
	}
	defer f.mu.Unlock()
	if !f.done {
		return FitOutcome{}, false
	}
	return FitOutcome{Candidates: f.cands, Model: f.model, Err: f.fitErr}, true
}

// Policy returns the entry's restart-policy value, computing it at
// most once via fn (single-flight, same discipline as Fit): policy
// tables are deterministic per campaign, so both values and errors
// cache — except cancellations, which must not poison the cell for
// the next caller. computed reports whether this call ran fn (false:
// served from cache), which the serve layer turns into a
// computed-vs-cached metric. fn is responsible for its own gating;
// the cell cannot hold a Gate slot itself because fn's fit step
// acquires one, and nesting would deadlock a single-slot gate.
func (e *Entry) Policy(fn func() (any, error)) (v any, computed bool, err error) {
	e.policy.mu.Lock()
	defer e.policy.mu.Unlock()
	if e.policy.done {
		return e.policy.v, false, e.policy.err
	}
	v, err = fn()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, true, err
	}
	e.policy.v, e.policy.err = v, err
	e.policy.done = true
	return v, true, err
}

// policyCell is the once-cell behind Entry.Policy.
type policyCell struct {
	mu   sync.Mutex
	done bool
	v    any
	err  error
}

// Gate bounds how many fit (and, in lvserve, collect) jobs run at
// once: a counting semaphore whose Acquire honours ctx while waiting.
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
