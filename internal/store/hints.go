package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
)

// Hint is one replicated write awaiting redelivery: the canonical
// campaign bytes destined for a peer replica that was down when the
// write was accepted locally.
type Hint struct {
	// Peer is the replica index the write is owed to.
	Peer int `json:"peer"`
	// ID is the campaign's content id (the hash of Data).
	ID string `json:"id"`
	// Data is the campaign's canonical JSON — exactly the bytes a
	// replication write carries.
	Data json.RawMessage `json:"campaign"`
}

// Hints is the hinted-handoff journal: per-peer FIFO queues of
// replicated writes that could not be delivered, optionally backed by
// an fsync'd append-only log so the promise to deliver survives a
// restart of the hinting replica. Redelivery is idempotent — ids are
// content hashes and stores dedup on them — so the journal never
// tracks delivery durably: acknowledged hints simply stop being
// replayed once every queue is empty and the log is truncated, and a
// crash between delivery and truncation merely redelivers. Safe for
// concurrent use.
type Hints struct {
	mu          sync.Mutex
	pending     map[int][]*Hint // per-peer FIFO queues
	queued      map[string]bool // "peer/id" dedup of pending hints
	f           *os.File        // nil for a memory-only journal
	broken      error           // set when a failed append could not be rolled back
	bytes       int64
	quarantined bool // a corrupt log was set aside at OpenHints
}

// hintLog is the journal file inside a Disk store's data directory.
const hintLog = "hints.log"

// NewHints returns a memory-only journal (the in-memory store's
// companion): hints queue and drain normally but die with the process.
func NewHints() *Hints {
	return &Hints{
		pending: make(map[int][]*Hint),
		queued:  make(map[string]bool),
	}
}

// errCorruptHintLog marks a complete hint-log record that fails to
// parse — corruption past the torn-tail case the truncation handles.
var errCorruptHintLog = errors.New("store: corrupt hint log record")

// OpenHints opens (creating if needed) the durable journal at path,
// replaying every complete record into the pending queues. Like the
// snapshot log, a torn final record — a crash between write and
// fsync — is provably unacknowledged and is truncated away.
//
// Unlike the snapshot log, a *complete* record that fails to parse is
// not fatal: the journal only promises redelivery of writes that are
// already durable on the hinting replica, so the worst a lost hint
// costs is a peer converging through anti-entropy instead of through
// handoff — whereas refusing to boot takes the whole replica (and
// every campaign it owns) offline. The corrupt log is renamed to
// path+".corrupt" for the operator, the event is logged loudly on
// logger (nil discards — callers without a logging policy stay
// quiet), and the journal starts empty; Quarantined reports it for
// healthz.
func OpenHints(path string, logger *slog.Logger) (*Hints, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	h := NewHints()
	good, err := h.replay(path)
	if errors.Is(err, errCorruptHintLog) {
		qpath := path + ".corrupt"
		if rerr := os.Rename(path, qpath); rerr != nil {
			return nil, fmt.Errorf("store: quarantining corrupt hint log: %v (%w)", rerr, err)
		}
		logger.Warn("corrupt hint log quarantined; undelivered hints now converge via anti-entropy",
			"error", err, "quarantined_to", qpath)
		h = NewHints()
		h.quarantined = true
		good = 0
	} else if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: hint log: %w", err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncating torn hint record: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: hint log: %w", err)
	}
	h.f = f
	h.bytes = good
	return h, nil
}

// replay loads every complete record of the hint log, returning the
// byte offset after the last good record. A missing log is an empty
// journal.
func (h *Hints) replay(path string) (good int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: hint log: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return good, nil // torn final record dropped, not replayed
		}
		if err != nil {
			return 0, fmt.Errorf("store: replaying hint log: %w", err)
		}
		rec := bytes.TrimSuffix(line, []byte("\n"))
		if len(bytes.TrimSpace(rec)) != 0 {
			var hint Hint
			if err := json.Unmarshal(rec, &hint); err != nil {
				return 0, fmt.Errorf("%w at offset %d: %v", errCorruptHintLog, good, err)
			}
			h.enqueue(&hint)
		}
		good += int64(len(line))
	}
}

// Enqueue journals a hint for peer: the canonical campaign bytes data
// (with content id id) will be redelivered by Next/Ack when the peer
// returns. Re-hinting a (peer, id) pair already queued is a no-op, so
// an owner can hint on every failed write without growing the queue.
// For a durable journal the record is fsync'd before Enqueue returns.
func (h *Hints) Enqueue(peer int, id string, data []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken != nil {
		return h.broken
	}
	if h.queued[hintKey(peer, id)] {
		return nil
	}
	hint := &Hint{Peer: peer, ID: id, Data: json.RawMessage(data)}
	if h.f != nil {
		rec, err := json.Marshal(hint)
		if err != nil {
			return err
		}
		rec = append(rec, '\n')
		if _, err := h.f.Write(rec); err != nil {
			h.rewind()
			return fmt.Errorf("store: appending hint: %w", err)
		}
		if err := h.f.Sync(); err != nil {
			h.rewind()
			return fmt.Errorf("store: hint fsync: %w", err)
		}
		h.bytes += int64(len(rec))
	}
	h.enqueue(hint)
	return nil
}

// enqueue adds a hint to the in-memory queues, deduplicating on
// (peer, id). Callers hold h.mu (or, during replay, exclusive access).
func (h *Hints) enqueue(hint *Hint) {
	key := hintKey(hint.Peer, hint.ID)
	if h.queued[key] {
		return
	}
	h.queued[key] = true
	h.pending[hint.Peer] = append(h.pending[hint.Peer], hint)
}

// rewind rolls the log back to the last acknowledged record after a
// failed append, mirroring the snapshot log's recovery; if that fails
// the journal refuses further appends rather than corrupting the log.
func (h *Hints) rewind() {
	if err := h.f.Truncate(h.bytes); err != nil {
		h.broken = fmt.Errorf("store: hint log unrecoverable after failed append (truncate: %w)", err)
		return
	}
	if _, err := h.f.Seek(h.bytes, io.SeekStart); err != nil {
		h.broken = fmt.Errorf("store: hint log unrecoverable after failed append (seek: %w)", err)
	}
}

// Next returns the oldest pending hint for peer without removing it
// (delivery may fail; Ack removes it on success).
func (h *Hints) Next(peer int) (*Hint, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	q := h.pending[peer]
	if len(q) == 0 {
		return nil, false
	}
	return q[0], true
}

// Ack records that the oldest pending hint for peer — which must be
// the one Next returned, identified by id — was delivered. When the
// whole journal drains empty the log file is truncated, bounding it
// by the backlog rather than the history. A crash before truncation
// only means redelivery, which the content-addressed stores dedup.
func (h *Hints) Ack(peer int, id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	q := h.pending[peer]
	if len(q) == 0 || q[0].ID != id {
		return
	}
	h.pending[peer] = q[1:]
	if len(h.pending[peer]) == 0 {
		delete(h.pending, peer)
	}
	delete(h.queued, hintKey(peer, id))
	if len(h.queued) == 0 && h.f != nil && h.broken == nil {
		// Empty journal: reset the log so it only ever holds the
		// undelivered backlog (plus already-delivered records awaiting
		// this truncation).
		if h.f.Truncate(0) == nil {
			if _, err := h.f.Seek(0, io.SeekStart); err == nil {
				h.bytes = 0
			}
		}
	}
}

// Peers lists the replicas with pending hints, ascending.
func (h *Hints) Peers() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	peers := make([]int, 0, len(h.pending))
	for p := range h.pending {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	return peers
}

// Depth reports the total number of pending hints (healthz's
// hint-queue depth).
func (h *Hints) Depth() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queued)
}

// Quarantined reports whether OpenHints found a corrupt log and set
// it aside — the replica booted, but hints it had promised may be
// lost until anti-entropy reconverges them.
func (h *Hints) Quarantined() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quarantined
}

// Close releases the journal's log handle (a no-op for memory-only
// journals). Pending hints stay in the log for the next OpenHints.
func (h *Hints) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.f == nil {
		return nil
	}
	err := h.f.Close()
	h.f = nil
	return err
}

func hintKey(peer int, id string) string {
	return fmt.Sprintf("%d/%s", peer, id)
}
