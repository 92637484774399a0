package lasvegas

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"lasvegas/internal/jsonnum"
)

// StreamSchemaVersion is the NDJSON campaign-stream schema version:
// the value of the header's "stream" field. Readers accept every
// version up to this one.
const StreamSchemaVersion = 1

// The NDJSON campaign wire format: one JSON value per line. The first
// line is the header; every following line is one run record. This is
// the O(1)-memory ingest path — ReadCampaignNDJSON folds records into
// a quantile sketch as they arrive and never materializes the sample,
// so `lvseq -format ndjson | curl --data-binary @-` can stream a
// campaign of millions of runs into lvserve:
//
//	{"stream":1,"problem":"costas-13","size":13,"seed":1,"runs":200}
//	{"iterations":1234,"seconds":0.01}
//	{"iterations":871,"seconds":0.007}
//	...
//
// The header's runs field, when > 0, declares the record count; a
// stream that ends with a different count fails with ErrStream (a
// torn upload must not become a silently smaller campaign). Records
// carry complete runs only — censored campaigns cannot stream
// (sketches store values, not censoring flags). Seconds are optional
// and not folded into the sketch: the sketch-backed campaign tracks
// the paper's scheduling-insensitive iteration measure.
type streamHeader struct {
	Stream   int               `json:"stream"`
	Problem  string            `json:"problem,omitempty"`
	Size     int               `json:"size,omitempty"`
	Seed     uint64            `json:"seed,omitempty"`
	Runs     int               `json:"runs,omitempty"`
	Metadata map[string]string `json:"metadata,omitempty"`
}

// streamRecord is one run. Iterations is a pointer so a record
// missing the field (e.g. a header line appearing mid-stream) is
// distinguishable from iterations: 0 and rejected.
type streamRecord struct {
	Iterations *float64 `json:"iterations"`
	Seconds    float64  `json:"seconds,omitempty"`
}

// WriteNDJSON streams the campaign's raw runs to w in the NDJSON wire
// format (header line, then one record per line) — the emitter behind
// `lvseq -format ndjson`. Censored campaigns fail with ErrCensored
// and campaigns that keep no raw runs with ErrNoRawRuns: the stream
// carries per-run records, which neither has.
func (c *Campaign) WriteNDJSON(w io.Writer) error {
	if c == nil || c.TotalRuns() == 0 {
		return ErrEmptyCampaign
	}
	if c.IsCensored() {
		return fmt.Errorf("%w: NDJSON streams carry complete runs only", ErrCensored)
	}
	if len(c.Iterations) == 0 {
		return fmt.Errorf("%w: nothing to stream", ErrNoRawRuns)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(streamHeader{
		Stream:   StreamSchemaVersion,
		Problem:  c.Problem,
		Size:     c.Size,
		Seed:     c.Seed,
		Runs:     len(c.Iterations),
		Metadata: c.Metadata,
	}); err != nil {
		return err
	}
	withSeconds := len(c.Seconds) == len(c.Iterations)
	for i, it := range c.Iterations {
		rec := streamRecord{Iterations: &it}
		if withSeconds {
			rec.Seconds = c.Seconds[i]
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadCampaignNDJSON reads an NDJSON campaign stream from r, folding
// every record into a quantile sketch of capacity k (DefaultSketchK
// when k ≤ 0) as it is decoded — memory stays O(k·log(n/k)) plus one
// fixed read buffer, whatever the stream length. The returned campaign
// is sketch-backed: Runs and Sketch.N() are the record count,
// Iterations is empty.
//
// The header is decoded with encoding/json. Records are then read line
// by line: a line holding exactly one of the two record shapes
// WriteNDJSON emits — {"iterations":N} or {"iterations":N,"seconds":S},
// JSON numbers, surrounding whitespace allowed — is parsed without
// reflection and blank lines are skipped. An iteration count of 1–15
// plain digits is read as an integer, which float64 holds exactly;
// any other number goes through strconv.ParseFloat, the conversion
// encoding/json uses, so the two give the same bits. The first line
// of any other shape — other key order, extra keys or inner
// whitespace, several values on one line, a value spanning lines, an
// out-of-range number, a line longer than the buffer — hands itself
// and the rest of the stream to an encoding/json decoder, value by
// value. Either way a stream is accepted or rejected, and folded into
// the same sketch, exactly as by the decoder alone.
//
// Malformed streams fail with ErrStream: a missing or
// newer-than-supported header, a record without finite iterations, or
// a stream whose record count contradicts the header's declared runs.
// An error from r itself (e.g. http.MaxBytesReader's overflow) is
// returned as-is for the caller to map.
func ReadCampaignNDJSON(r io.Reader, k int) (*Campaign, error) {
	dec := json.NewDecoder(r)
	var hdr streamHeader
	if err := dec.Decode(&hdr); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: empty stream", ErrStream)
		}
		return nil, streamErr(err, "bad header")
	}
	if hdr.Stream < 1 {
		return nil, fmt.Errorf("%w: first line is not a stream header (missing \"stream\" field)", ErrStream)
	}
	if hdr.Stream > StreamSchemaVersion {
		return nil, fmt.Errorf("%w: stream schema %d, this release reads ≤ %d", ErrStream, hdr.Stream, StreamSchemaVersion)
	}
	sk, err := NewSketch(k)
	if err != nil {
		return nil, err
	}
	f := &recordFolder{sk: sk}
	if err := f.read(io.MultiReader(dec.Buffered(), r)); err != nil {
		return nil, err
	}
	if f.count == 0 {
		return nil, ErrEmptyCampaign
	}
	if hdr.Runs > 0 && f.count != hdr.Runs {
		return nil, fmt.Errorf("%w: header declares %d runs but the stream carried %d (torn upload?)",
			ErrStream, hdr.Runs, f.count)
	}
	return &Campaign{
		Problem:  hdr.Problem,
		Size:     hdr.Size,
		Seed:     hdr.Seed,
		Runs:     f.count,
		Metadata: hdr.Metadata,
		Sketch:   sk,
	}, nil
}

// streamBufSize is the record reader's fixed buffer. A canonical
// record line is a few dozen bytes; a longer line than this takes the
// decoder path.
const streamBufSize = 4 << 10

// recordFolder folds the records after a stream header into a sketch.
type recordFolder struct {
	sk    *Sketch
	count int // records folded so far
}

// add folds one record's iterations.
func (f *recordFolder) add(x float64) error {
	if err := f.sk.Add(x); err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrStream, f.count+1, err)
	}
	f.count++
	return nil
}

// read folds every record in r: canonical lines on the fast path, and
// from the first other line on, everything through decode.
func (f *recordFolder) read(r io.Reader) error {
	br := bufio.NewReaderSize(r, streamBufSize)
	for {
		line, err := br.ReadSlice('\n')
		whole := err == nil || err == io.EOF
		switch x, ok := canonicalRecord(line); {
		case whole && ok:
			if aerr := f.add(x); aerr != nil {
				return aerr
			}
		case whole && len(trimSpace(line)) == 0:
			// A blank line: whitespace between values.
		default:
			// A line over the buffer continues from br. A reader error
			// (or EOF) comes after the partial line, once, as the
			// decoder would have met it.
			rest := io.Reader(br)
			if err != nil && err != bufio.ErrBufferFull {
				rest = errReader{err}
			}
			return f.decode(json.NewDecoder(io.MultiReader(bytes.NewReader(line), rest)))
		}
		if err == io.EOF {
			return nil
		}
	}
}

// decode is the general record path: encoding/json, one value at a
// time, until the stream ends.
func (f *recordFolder) decode(dec *json.Decoder) error {
	for {
		var rec streamRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return nil
			}
			return streamErr(err, fmt.Sprintf("bad record %d", f.count+1))
		}
		if rec.Iterations == nil {
			return fmt.Errorf("%w: record %d has no iterations", ErrStream, f.count+1)
		}
		if err := f.add(*rec.Iterations); err != nil {
			return err
		}
	}
}

// canonicalRecord parses a line holding exactly one record as
// WriteNDJSON writes it, {"iterations":N} or
// {"iterations":N,"seconds":S}, with optional surrounding whitespace.
// It reports false for any other line, and for a number ParseFloat
// rejects, leaving those to the decoder.
func canonicalRecord(line []byte) (float64, bool) {
	b, ok := bytes.CutPrefix(trimSpace(line), []byte(`{"iterations":`))
	if !ok {
		return 0, false
	}
	x, n := jsonnum.Parse(b)
	if n == 0 {
		return 0, false
	}
	b = b[n:]
	if s, ok := bytes.CutPrefix(b, []byte(`,"seconds":`)); ok {
		m := jsonnum.Check(s)
		if m == 0 {
			return 0, false
		}
		b = s[m:]
	}
	return x, string(b) == "}"
}

// trimSpace strips JSON whitespace from both ends of b.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// errReader returns its error on every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// streamErr wraps a decode failure as ErrStream, but passes reader
// errors (connection drops, body-size caps) through untouched so
// callers can map them: a *json.SyntaxError or type error is a
// malformed stream; anything else came from r.
func streamErr(err error, what string) error {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	if errors.As(err, &syn) || errors.As(err, &typ) || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s: %v", ErrStream, what, err)
	}
	return err
}
