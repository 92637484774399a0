package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lasvegas"
)

// snapshotLog is the append-only log file inside a Disk store's data
// directory.
const snapshotLog = "campaigns.log"

// Disk is the durable Store: a Memory index fronted by an append-only
// snapshot log. Every accepted campaign's canonical JSON is written
// as one log line and fsync'd before the upload is acknowledged;
// Open replays the log line by line through the same Add path, so a
// restarted daemon converges on exactly the state the old one held —
// same ids (they are content hashes of the persisted bytes), same
// FIFO-eviction outcome (replay preserves insertion order), and,
// fits being deterministic, byte-identical fit and predict responses.
//
// The log is never rewritten in place. Records evicted from the
// resident index stay in the log (and are re-evicted identically on
// replay); a campaign re-uploaded after eviction appends a second
// record. Stats.Bytes therefore reports the log size on disk, the
// number an operator watches.
//
// A torn final record — a crash between write and fsync, leaving a
// line without its terminating newline — is provably unacknowledged,
// so Open drops and truncates it. Any *complete* record that fails to
// parse, tail included, is a hard error: it may have been
// acknowledged, and silently skipping records would also change
// eviction order and break the replay-converges guarantee.
type Disk struct {
	mem *Memory

	mu       sync.Mutex // serializes log appends
	f        *os.File
	logBytes int64
	broken   error // set when a failed append could not be rolled back
	replayed int
	replayIn time.Duration
}

// Open opens (creating if needed) the durable store rooted at dir,
// replaying any existing snapshot log. maxCampaigns bounds the
// resident index exactly like NewMemory.
func Open(dir string, maxCampaigns int) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: data dir: %w", err)
	}
	d := &Disk{mem: NewMemory(maxCampaigns)}
	path := filepath.Join(dir, snapshotLog)
	start := time.Now()
	good, err := d.replay(path)
	if err != nil {
		return nil, err
	}
	d.replayIn = time.Since(start)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot log: %w", err)
	}
	// Drop a torn final record (crash between write and fsync) so new
	// appends don't glue onto its tail.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncating torn record: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: snapshot log: %w", err)
	}
	d.f = f
	d.logBytes = good
	return d, nil
}

// replay loads every complete record of the snapshot log into the
// resident index, returning the byte offset after the last good
// record. A missing log is a fresh store.
func (d *Disk) replay(path string) (good int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: snapshot log: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A non-empty remainder without its newline is the torn
			// final record — dropped, not replayed.
			return good, nil
		}
		if err != nil {
			return 0, fmt.Errorf("store: replaying snapshot log: %w", err)
		}
		rec := bytes.TrimSuffix(line, []byte("\n"))
		if len(bytes.TrimSpace(rec)) == 0 {
			good += int64(len(line))
			continue
		}
		c, err := Decode(rec)
		if err != nil {
			// A corrupt record that *ends in a newline* was fully
			// written — under write-then-fsync-then-ack it may have
			// been acknowledged, so silently truncating it would break
			// the durability contract. Refuse to boot and let the
			// operator decide; only a record missing its final newline
			// (the EOF path above) is a provably unacknowledged torn
			// tail.
			return 0, fmt.Errorf("store: snapshot log record at offset %d: %w", good, err)
		}
		// The id is the hash of the persisted bytes — the same bytes
		// Add hashed when it first accepted the campaign.
		d.mem.addBytes(idOfBytes(rec), c, int64(len(rec)))
		d.replayed++
		good += int64(len(line))
	}
}

// Add implements Store: the campaign's canonical bytes are appended
// to the snapshot log and fsync'd before the entry is published, so
// an acknowledged upload survives any subsequent crash. Re-uploads of
// a resident campaign are deduplicated without touching the log.
func (d *Disk) Add(c *lasvegas.Campaign) (*Entry, error) {
	data, err := c.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return d.AddEncoded(idOfBytes(data), data, c)
}

// AddEncoded is Add for a caller that already holds the campaign's
// content id and canonical bytes (the serve layer computes both for
// replica routing), sparing a second MarshalJSON on the upload path.
// id and data must come from Encode.
func (d *Disk) AddEncoded(id string, data []byte, c *lasvegas.Campaign) (*Entry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.broken != nil {
		return nil, d.broken
	}
	if e, err := d.mem.Get(id); err == nil {
		return e, nil
	}
	rec := append(data, '\n')
	if _, err := d.f.Write(rec); err != nil {
		d.rewind()
		return nil, fmt.Errorf("store: appending campaign: %w", err)
	}
	if err := d.f.Sync(); err != nil {
		// The bytes may or may not be durable — either way the upload
		// is NACKed, so the record must not survive to be resurrected
		// (and served as accepted) by the next replay.
		d.rewind()
		return nil, fmt.Errorf("store: fsync: %w", err)
	}
	d.logBytes += int64(len(rec))
	e, _ := d.mem.addBytes(id, c, int64(len(data)))
	return e, nil
}

// rewind rolls the log back to the last acknowledged record after a
// failed append. Without it the partial bytes would fuse with the
// next successful record into mid-log corruption — the one thing
// replay treats as unrecoverable. If the rollback itself fails the
// store refuses further appends rather than corrupting the log.
func (d *Disk) rewind() {
	if err := d.f.Truncate(d.logBytes); err != nil {
		d.broken = fmt.Errorf("store: snapshot log unrecoverable after failed append (truncate: %w); restart to replay the acknowledged prefix", err)
		return
	}
	if _, err := d.f.Seek(d.logBytes, io.SeekStart); err != nil {
		d.broken = fmt.Errorf("store: snapshot log unrecoverable after failed append (seek: %w); restart to replay the acknowledged prefix", err)
	}
}

// Get implements Store.
func (d *Disk) Get(id string) (*Entry, error) { return d.mem.Get(id) }

// IDs implements Store.
func (d *Disk) IDs() []string { return d.mem.IDs() }

// Len implements Store.
func (d *Disk) Len() int { return d.mem.Len() }

// Stats implements Store.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Campaigns:      d.mem.Len(),
		Bytes:          d.logBytes,
		Replayed:       d.replayed,
		ReplayDuration: d.replayIn,
	}
}

// Close implements Store, closing the snapshot log. Every append was
// already fsync'd when it was acknowledged; the final Sync here only
// covers a clean shutdown's file metadata before the handle goes away.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	serr := d.f.Sync()
	cerr := d.f.Close()
	d.f = nil
	if cerr != nil {
		return cerr
	}
	return serr
}
