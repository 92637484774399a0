package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestOwnersPreferenceList: Owners is Owner plus the next k-1 ranges
// around the ring, clamped and wrap-safe, and every id keeps its
// primary owner as the list head.
func TestOwnersPreferenceList(t *testing.T) {
	const replicas = 5
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("c%032x", i)
		primary := Owner(id, replicas)
		for k := 1; k <= replicas+2; k++ {
			owners := Owners(id, replicas, k)
			wantLen := k
			if wantLen > replicas {
				wantLen = replicas // clamped
			}
			if len(owners) != wantLen {
				t.Fatalf("Owners(%q, %d, %d) has %d entries, want %d", id, replicas, k, len(owners), wantLen)
			}
			if owners[0] != primary {
				t.Fatalf("Owners(%q)[0] = %d, want primary %d", id, owners[0], primary)
			}
			seen := map[int]bool{}
			for j, o := range owners {
				if o != (primary+j)%replicas {
					t.Fatalf("Owners(%q)[%d] = %d, want %d", id, j, o, (primary+j)%replicas)
				}
				if o < 0 || o >= replicas || seen[o] {
					t.Fatalf("Owners(%q) = %v: invalid or duplicate owner", id, owners)
				}
				seen[o] = true
			}
		}
	}
	// Degenerate shapes collapse to the single-owner case.
	for _, owners := range [][]int{Owners("x", 0, 3), Owners("x", 1, 0), Owners("x", 1, 1)} {
		if len(owners) != 1 || owners[0] != 0 {
			t.Errorf("degenerate Owners = %v, want [0]", owners)
		}
	}
}

// TestOwnersCoverEveryReplica: with k ≥ 2 every replica appears in
// some id's preference list as a secondary — the property that lets
// any single replica die without losing a range.
func TestOwnersCoverEveryReplica(t *testing.T) {
	const replicas, k = 3, 2
	secondary := map[int]bool{}
	for i := 0; i < 64; i++ {
		// Realistic content-addressed ids (sequential synthetic strings
		// can cluster in one FNV range; SHA-256-derived ids do not).
		id := idOfBytes([]byte(fmt.Sprintf("campaign payload %d", i)))
		owners := Owners(id, replicas, k)
		for _, o := range owners[1:] {
			secondary[o] = true
		}
	}
	for r := 0; r < replicas; r++ {
		if !secondary[r] {
			t.Errorf("replica %d never appears as a secondary owner", r)
		}
	}
}

// DepthFor reports the pending hints owed to one peer.
func (h *Hints) DepthFor(peer int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending[peer])
}

func mustEnqueue(t *testing.T, h *Hints, peer int, id string, data string) {
	t.Helper()
	if err := h.Enqueue(peer, id, []byte(data)); err != nil {
		t.Fatalf("Enqueue(%d, %q): %v", peer, id, err)
	}
}

// TestHintsFIFOAndDedup: hints drain per peer in FIFO order, re-hints
// of a queued (peer, id) pair are no-ops, and Ack only removes the
// head it was told about.
func TestHintsFIFOAndDedup(t *testing.T) {
	h := NewHints()
	mustEnqueue(t, h, 1, "a", `{"x":1}`)
	mustEnqueue(t, h, 1, "b", `{"x":2}`)
	mustEnqueue(t, h, 1, "a", `{"x":1}`) // dup: no-op
	mustEnqueue(t, h, 2, "c", `{"x":3}`)
	if h.Depth() != 3 || h.DepthFor(1) != 2 || h.DepthFor(2) != 1 {
		t.Fatalf("depth = %d (peer1 %d, peer2 %d), want 3 (2, 1)", h.Depth(), h.DepthFor(1), h.DepthFor(2))
	}
	if peers := h.Peers(); len(peers) != 2 || peers[0] != 1 || peers[1] != 2 {
		t.Fatalf("Peers() = %v, want [1 2]", peers)
	}
	hint, ok := h.Next(1)
	if !ok || hint.ID != "a" || string(hint.Data) != `{"x":1}` {
		t.Fatalf("Next(1) = %+v, want hint a", hint)
	}
	h.Ack(1, "zzz") // wrong id: ignored
	if h.DepthFor(1) != 2 {
		t.Fatalf("Ack with wrong id removed a hint")
	}
	h.Ack(1, "a")
	if hint, _ = h.Next(1); hint == nil || hint.ID != "b" {
		t.Fatalf("after Ack, Next(1) = %+v, want hint b", hint)
	}
	h.Ack(1, "b")
	h.Ack(2, "c")
	if h.Depth() != 0 {
		t.Fatalf("depth = %d after draining, want 0", h.Depth())
	}
	if _, ok := h.Next(1); ok {
		t.Fatal("Next on a drained queue returned a hint")
	}
}

// TestHintsReplay: a durable journal survives a restart of the
// hinting replica — pending hints (and only pending hints) come back,
// and re-enqueueing a replayed hint still dedups.
func TestHintsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), hintLog)
	h, err := OpenHints(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, h, 1, "a", `{"x":1}`)
	mustEnqueue(t, h, 2, "b", `{"x":2}`)
	mustEnqueue(t, h, 1, "c", `{"x":3}`)
	h.Ack(1, "a") // delivered before the crash
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHints(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	// The journal never tracks delivery durably: the acked hint may be
	// replayed (redelivery is idempotent), but every *pending* hint
	// must be.
	if h2.DepthFor(2) != 1 || h2.DepthFor(1) < 1 {
		t.Fatalf("replayed depths peer1=%d peer2=%d, want ≥1 and 1", h2.DepthFor(1), h2.DepthFor(2))
	}
	if hint, ok := h2.Next(2); !ok || hint.ID != "b" || string(hint.Data) != `{"x":2}` {
		t.Fatalf("replayed Next(2) = %+v, want hint b", hint)
	}
	// Replay-idempotence: re-hinting a replayed pair is still a no-op.
	before := h2.Depth()
	mustEnqueue(t, h2, 2, "b", `{"x":2}`)
	if h2.Depth() != before {
		t.Fatalf("re-enqueue after replay grew the queue: %d -> %d", before, h2.Depth())
	}
}

// TestHintsTruncateOnDrain: once every queue empties the log file is
// reset, so the journal is bounded by the backlog, not the history.
func TestHintsTruncateOnDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), hintLog)
	h, err := OpenHints(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	mustEnqueue(t, h, 1, "a", `{"x":1}`)
	mustEnqueue(t, h, 1, "b", `{"x":2}`)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("hint log empty with two pending hints")
	}
	h.Ack(1, "a")
	h.Ack(1, "b")
	if fi, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("hint log holds %d bytes after a full drain, want 0", fi.Size())
	}
	// And the journal still works after the reset.
	mustEnqueue(t, h, 1, "c", `{"x":3}`)
	if h.Depth() != 1 {
		t.Fatalf("depth after post-drain enqueue = %d, want 1", h.Depth())
	}
}

// TestHintsTornTail: a hint record missing its newline (crash between
// write and fsync) is dropped on replay; a complete but corrupt
// record quarantines the whole log (see TestHintsQuarantine).
func TestHintsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, hintLog)
	h, err := OpenHints(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEnqueue(t, h, 1, "a", `{"x":1}`)
	h.Close()

	// Torn tail: append a record without its terminating newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"peer":2,"id":"b","campaign":{`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	h2, err := OpenHints(path, nil)
	if err != nil {
		t.Fatalf("torn tail must be dropped, got %v", err)
	}
	if h2.Depth() != 1 || h2.DepthFor(1) != 1 {
		t.Fatalf("depth after torn-tail replay = %d, want the 1 good hint", h2.Depth())
	}
	h2.Close()

	// A complete corrupt record no longer refuses to open — it
	// quarantines (the replica must boot so anti-entropy can heal it).
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h3, err := OpenHints(path, nil)
	if err != nil {
		t.Fatalf("corrupt complete record must quarantine, not fail: %v", err)
	}
	if !h3.Quarantined() {
		t.Fatal("Quarantined() = false after opening a corrupt log")
	}
	h3.Close()
}

// TestHintsQuarantine: a corrupt hint log is set aside as
// hints.log.corrupt (bytes intact, for the operator), the journal
// boots empty and stays fully usable — enqueue, drain, truncate —
// and the next clean open is not marked quarantined.
func TestHintsQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, hintLog)
	corrupt := `{"peer":1,"id":"a","campaign":{"x":1}}` + "\n" + "garbage not json\n"
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := OpenHints(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Quarantined() {
		t.Fatal("Quarantined() = false")
	}
	if h.Depth() != 0 {
		t.Fatalf("quarantined journal starts with depth %d, want 0 (even the parseable prefix is set aside whole)", h.Depth())
	}
	kept, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if string(kept) != corrupt {
		t.Fatalf("quarantine file bytes changed:\n%q\nwant\n%q", kept, corrupt)
	}

	// The fresh journal is durable again: enqueue survives a reopen.
	mustEnqueue(t, h, 2, "b", `{"y":2}`)
	h.Close()
	h2, err := OpenHints(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Quarantined() {
		t.Fatal("clean reopen still reports quarantined")
	}
	if h2.Depth() != 1 || h2.DepthFor(2) != 1 {
		t.Fatalf("depth after reopen = %d, want 1", h2.Depth())
	}
	h2.Close()
}
