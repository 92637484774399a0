package lasvegas_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"lasvegas"
)

// FuzzReadCampaignNDJSON pins the stream reader's failure contract
// and holds its canonical-line fast path to the plain decoder loop it
// replaced (legacyReadCampaignNDJSON below). Whatever bytes arrive —
// malformed headers, torn records, declared-count lies, binary
// garbage — and however a reader chunks them or ends them with an
// error, the reader must never panic, must fail only with the typed
// ErrStream, ErrEmptyCampaign or the reader's own error, and must
// agree with the decoder loop on every outcome: the same error
// message, or the same run count and canonical campaign bytes.
func FuzzReadCampaignNDJSON(f *testing.F) {
	const hdr = `{"stream":1,"problem":"p"}` + "\n"
	f.Add([]byte(`{"stream":1,"problem":"p","size":3,"seed":1,"runs":2}` + "\n" +
		`{"iterations":12}` + "\n" + `{"iterations":34}` + "\n"))
	// Declared-count lie: header promises 3 runs, stream carries 1.
	f.Add([]byte(`{"stream":1,"problem":"p","runs":3}` + "\n" + `{"iterations":12}` + "\n"))
	// Torn record: the writer died mid-line.
	f.Add([]byte(`{"stream":1,"problem":"p","runs":2}` + "\n" + `{"iterat`))
	// Missing header entirely.
	f.Add([]byte(`{"iterations":12}` + "\n"))
	// Unsupported future schema.
	f.Add([]byte(`{"stream":99,"problem":"p"}` + "\n"))
	// Non-finite observation.
	f.Add([]byte(hdr + `{"iterations":1e999}` + "\n"))
	// Record without iterations.
	f.Add([]byte(hdr + `{"seconds":0.5}` + "\n"))
	// Empty input and binary noise.
	f.Add([]byte(""))
	f.Add([]byte{0xff, 0xfe, 0x00, 0x7b})
	// Line framing: CRLF endings, blank lines, no final newline.
	f.Add([]byte("{\"stream\":1}\r\n{\"iterations\":1}\r\n{\"iterations\":2,\"seconds\":0.5}\r\n"))
	f.Add([]byte(hdr + "\n" + `{"iterations":1}` + "\n\n \t\n" + `{"iterations":2}` + "\n\n"))
	f.Add([]byte(hdr + `{"iterations":1}` + "\n" + `{"iterations":2}`))
	// Shapes off the fast path: swapped keys, seconds, two values on
	// one line, a record split across lines, then canonical lines.
	f.Add([]byte(hdr + `{"seconds":0.5,"iterations":3}` + "\n" + `{"iterations":4}` + "\n"))
	f.Add([]byte(hdr + `{"iterations":3,"seconds":0.25}` + "\n" + `{"iterations":4,"seconds":1e-3}` + "\n"))
	f.Add([]byte(hdr + `{"iterations":3}{"iterations":4}` + "\n" + `{"iterations":5}` + "\n"))
	f.Add([]byte(hdr + `{"iterations":` + "\n" + `12}` + "\n" + `{"iterations":5}` + "\n"))
	f.Add([]byte(hdr + `{"iterations":12` + "\n" + `3}` + "\n"))
	// Numbers at and past the JSON grammar's edges.
	for _, num := range []string{"-0", "01", "+1", ".5", "1.", "0x10", "Inf", "1E400", "1e-400"} {
		f.Add([]byte(hdr + `{"iterations":` + num + `}` + "\n" + `{"iterations":7}` + "\n"))
		f.Add([]byte(hdr + `{"iterations":7,"seconds":` + num + `}` + "\n"))
	}
	// Counts at the edges of the integer reader: 15 and 16 digits, a
	// 17-digit count float64 rounds, zero in both signs, and integral
	// values it must leave to ParseFloat.
	for _, num := range []string{"999999999999999", "1000000000000000", "9007199254740993", "0", "-0", "1e3", "1.0", "000"} {
		f.Add([]byte(hdr + `{"iterations":` + num + `}` + "\n" + `{"iterations":` + num + `,"seconds":` + num + `}` + "\n"))
	}
	// A line longer than the reader's buffer, then a canonical line.
	f.Add([]byte(hdr + `{"iterations":` + strings.Repeat(" ", 5<<10) + "9}\n" + `{"iterations":7}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rd := range readerShapes {
			got, gerr := lasvegas.ReadCampaignNDJSON(rd.wrap(data), 0)
			want, werr := legacyReadCampaignNDJSON(rd.wrap(data), 0)
			if gerr != nil || werr != nil {
				// The decoder loop's types live in this package, which
				// its type-error messages name.
				if gerr == nil || werr == nil ||
					gerr.Error() != strings.ReplaceAll(werr.Error(), "lasvegas_test.", "lasvegas.") {
					t.Fatalf("%s reader: got error %v, decoder loop %v", rd.name, gerr, werr)
				}
				if !errors.Is(gerr, lasvegas.ErrStream) && !errors.Is(gerr, lasvegas.ErrEmptyCampaign) &&
					!errors.Is(gerr, errInjected) {
					t.Fatalf("%s reader: untyped stream error: %v", rd.name, gerr)
				}
				continue
			}
			if got.TotalRuns() == 0 {
				t.Fatalf("accepted a campaign with zero runs from %q", data)
			}
			if got.Runs != want.Runs {
				t.Fatalf("%s reader: %d runs, decoder loop %d", rd.name, got.Runs, want.Runs)
			}
			gb, err := got.MarshalJSON()
			if err != nil {
				t.Fatalf("accepted campaign does not re-encode: %v", err)
			}
			wb, err := want.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s reader: canonical bytes differ from the decoder loop's:\n%s\nvs\n%s", rd.name, gb, wb)
			}
		}
	})
}

// errInjected stands in for a reader failure such as
// http.MaxBytesReader's overflow.
var errInjected = errors.New("injected reader failure")

// readerShapes are the ways a stream reaches the reader: whole, one
// byte per Read, with EOF on the last data, and cut by a reader
// error that every later Read repeats.
var readerShapes = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
	{"failing", func(b []byte) io.Reader {
		return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(errInjected))
	}},
}

// legacyReadCampaignNDJSON is the stream reader as it was before the
// canonical-line fast path: one encoding/json decoder for the header
// and every record. The fuzz target holds ReadCampaignNDJSON to it.
func legacyReadCampaignNDJSON(r io.Reader, k int) (*lasvegas.Campaign, error) {
	type streamHeader struct {
		Stream   int               `json:"stream"`
		Problem  string            `json:"problem,omitempty"`
		Size     int               `json:"size,omitempty"`
		Seed     uint64            `json:"seed,omitempty"`
		Runs     int               `json:"runs,omitempty"`
		Metadata map[string]string `json:"metadata,omitempty"`
	}
	type streamRecord struct {
		Iterations *float64 `json:"iterations"`
		Seconds    float64  `json:"seconds,omitempty"`
	}
	streamErr := func(err error, what string) error {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		if errors.As(err, &syn) || errors.As(err, &typ) || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: %s: %v", lasvegas.ErrStream, what, err)
		}
		return err
	}
	dec := json.NewDecoder(r)
	var hdr streamHeader
	if err := dec.Decode(&hdr); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: empty stream", lasvegas.ErrStream)
		}
		return nil, streamErr(err, "bad header")
	}
	if hdr.Stream < 1 {
		return nil, fmt.Errorf("%w: first line is not a stream header (missing \"stream\" field)", lasvegas.ErrStream)
	}
	if hdr.Stream > lasvegas.StreamSchemaVersion {
		return nil, fmt.Errorf("%w: stream schema %d, this release reads ≤ %d",
			lasvegas.ErrStream, hdr.Stream, lasvegas.StreamSchemaVersion)
	}
	sk, err := lasvegas.NewSketch(k)
	if err != nil {
		return nil, err
	}
	count := 0
	for {
		var rec streamRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return nil, streamErr(err, fmt.Sprintf("bad record %d", count+1))
		}
		if rec.Iterations == nil {
			return nil, fmt.Errorf("%w: record %d has no iterations", lasvegas.ErrStream, count+1)
		}
		if err := sk.Add(*rec.Iterations); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", lasvegas.ErrStream, count+1, err)
		}
		count++
	}
	if count == 0 {
		return nil, lasvegas.ErrEmptyCampaign
	}
	if hdr.Runs > 0 && count != hdr.Runs {
		return nil, fmt.Errorf("%w: header declares %d runs but the stream carried %d (torn upload?)",
			lasvegas.ErrStream, hdr.Runs, count)
	}
	return &lasvegas.Campaign{
		Problem:  hdr.Problem,
		Size:     hdr.Size,
		Seed:     hdr.Seed,
		Runs:     count,
		Metadata: hdr.Metadata,
		Sketch:   sk,
	}, nil
}
