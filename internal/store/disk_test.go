package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestDiskReplay: close a durable store, reopen its directory, and
// find the same campaigns under the same ids, with replay counters in
// the stats and no log growth from the dedup of a re-upload.
func TestDiskReplay(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	full := testCampaign(t)
	e1, err := d.Add(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(mkCampaign(7)); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Replayed != 0 || st.Campaigns != 2 || st.Bytes <= 0 {
		t.Errorf("fresh store stats %+v, want 2 campaigns, 0 replayed, positive bytes", st)
	}
	bytesBefore := d.Stats().Bytes
	// Dedup: re-adding a resident campaign must not append a record.
	if _, err := d.Add(testCampaign(t)); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Bytes != bytesBefore {
		t.Errorf("log grew to %d bytes on a duplicate upload, want %d", st.Bytes, bytesBefore)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Campaigns != 2 || st.Replayed != 2 || st.Bytes != bytesBefore {
		t.Fatalf("replayed stats %+v, want 2 campaigns, 2 replayed, %d bytes", st, bytesBefore)
	}
	got, err := r.Get(e1.ID)
	if err != nil {
		t.Fatalf("replayed store lost %q: %v", e1.ID, err)
	}
	// The replayed campaign must hash back to the id it was stored
	// under — the content-address round-trip the durability contract
	// rests on.
	id, _, err := Encode(got.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	if id != e1.ID {
		t.Errorf("replayed campaign re-hashes to %q, want %q", id, e1.ID)
	}
	if got.Campaign.Problem != full.Problem || len(got.Campaign.Iterations) != len(full.Iterations) {
		t.Errorf("replayed campaign differs: %q with %d runs", got.Campaign.Problem, len(got.Campaign.Iterations))
	}
}

// TestDiskEvictionConverges: replay applies the same FIFO cap in the
// same order, so a restarted bounded store holds exactly the
// campaigns the old one did.
func TestDiskEvictionConverges(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		e, err := d.Add(mkCampaign(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	if d.Len() != 2 {
		t.Fatalf("bounded store holds %d, want 2", d.Len())
	}
	d.Close()

	r, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get(ids[0]); !errors.Is(err, ErrUnknownCampaign) {
		t.Errorf("evicted campaign resurrected by replay: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := r.Get(id); err != nil {
			t.Errorf("replayed store lost %q: %v", id, err)
		}
	}
}

// TestDiskTornRecord: a crash can leave a partial final record; Open
// must drop it, truncate it away, and keep accepting appends.
func TestDiskTornRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(mkCampaign(1)); err != nil {
		t.Fatal(err)
	}
	good := d.Stats().Bytes
	d.Close()

	log := filepath.Join(dir, snapshotLog)
	f, err := os.OpenFile(log, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":2,"problem":"torn","iter`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir, 16)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if st := r.Stats(); st.Replayed != 1 || st.Bytes != good {
		t.Errorf("stats after torn-tail recovery %+v, want 1 replayed and %d bytes", st, good)
	}
	if _, err := r.Add(mkCampaign(2)); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// The truncation must have cut the torn tail out of the file, not
	// just skipped it: a third generation replays both records.
	g, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if st := g.Stats(); st.Replayed != 2 {
		t.Errorf("after torn-tail truncation and one append, replayed %d, want 2", st.Replayed)
	}
}

// TestDiskCorruptCompleteTail: a final record that fails to parse but
// carries its terminating newline was fully written — and possibly
// acknowledged — so Open must refuse rather than silently destroy it.
func TestDiskCorruptCompleteTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(mkCampaign(1)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	log := filepath.Join(dir, snapshotLog)
	f, err := os.OpenFile(log, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"schema\":2,\"problem\":\"corrupt\",\"iterations\":[oops]}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, 16); err == nil {
		t.Fatal("Open silently accepted (and would have truncated) a corrupt newline-terminated record")
	}
}

// TestDiskMidLogCorruption: garbage anywhere but the tail is a hard
// error — skipping records would silently change eviction order.
func TestDiskMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, snapshotLog)
	if err := os.WriteFile(log, []byte("not json\n{\"schema\":2,\"problem\":\"x\",\"runs\":1,\"seed\":1,\"iterations\":[1]}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 16); err == nil {
		t.Fatal("Open accepted a corrupt mid-log record")
	}
}
