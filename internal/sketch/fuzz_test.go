package sketch

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

// fuzzSketch folds arbitrary fuzz bytes into a small-capacity sketch
// (k=8 forces compactions early, exercising the lossy path) with a
// deterministic byte→observation mapping.
func fuzzSketch(t *testing.T, data []byte) *Sketch {
	t.Helper()
	s, err := New(8)
	if err != nil {
		t.Fatalf("New(8): %v", err)
	}
	for i, b := range data {
		// Spread values across sign and magnitude so merges see
		// interleaved ranges, not sorted runs.
		x := float64(int8(b)) * float64(1+i%7)
		if err := s.Add(x); err != nil {
			t.Fatalf("Add(%v): %v", x, err)
		}
	}
	return s
}

// FuzzSketchRoundTrip pins the serialize → merge → deserialize
// algebra on arbitrary observation streams: marshalling must be
// canonical (round-tripping yields the same bytes), and merging a
// deserialized copy must be byte-equivalent to merging the original —
// the property replica anti-entropy and shard pooling rely on.
func FuzzSketchRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 255, 128, 7}, []byte{42})
	f.Add(bytes.Repeat([]byte{9, 200, 33}, 40), bytes.Repeat([]byte{1}, 100))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa := fuzzSketch(t, a)
		sb := fuzzSketch(t, b)

		ja, err := sa.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var ra Sketch
		if err := ra.UnmarshalJSON(ja); err != nil {
			t.Fatalf("unmarshal own bytes: %v", err)
		}
		ja2, err := ra.MarshalJSON()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(ja, ja2) {
			t.Fatalf("round trip not canonical:\n%s\nvs\n%s", ja, ja2)
		}
		if ra.N() != sa.N() {
			t.Fatalf("round trip changed n: %d vs %d", ra.N(), sa.N())
		}

		m1, err := Merge(sa, sb)
		if err != nil {
			t.Fatalf("merge originals: %v", err)
		}
		m2, err := Merge(&ra, sb)
		if err != nil {
			t.Fatalf("merge deserialized: %v", err)
		}
		j1, err := m1.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		j2, err := m2.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("merge of deserialized copy diverged:\n%s\nvs\n%s", j1, j2)
		}
		if m1.N() != sa.N()+sb.N() {
			t.Fatalf("merged n = %d, want %d", m1.N(), sa.N()+sb.N())
		}
	})
}

// FuzzSketchUnmarshal feeds arbitrary bytes to UnmarshalJSON: hostile
// or corrupt wire input must fail with ErrSketch (or a JSON error),
// never panic, and an accepted sketch must re-marshal canonically.
func FuzzSketchUnmarshal(f *testing.F) {
	valid, _ := func() ([]byte, error) {
		s, _ := New(8)
		for i := 0; i < 50; i++ {
			s.Add(float64(i * 3))
		}
		return s.MarshalJSON()
	}()
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"k":8,"n":1,"levels":[[1]]}`))
	f.Add([]byte(`{"v":2}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"v":1,"k":8,"n":2,"min":5,"max":6,"levels":[[1,2]],"compactions":[0]}`))
	f.Add([]byte(`{"v":1,"k":8,"n":3,"min":0,"max":9,"levels":[[1],[7]],"compactions":[1,0]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalJSON(data); err != nil {
			return
		}
		if s.N() > 0 {
			prev := s.Quantile(0)
			for i := 1; i <= 64; i++ {
				q := s.Quantile(float64(i) / 64)
				if q < prev {
					t.Fatalf("accepted sketch has Quantile(%v) = %v below Quantile(%v) = %v", float64(i)/64, q, float64(i-1)/64, prev)
				}
				prev = q
			}
			if lo, hi := s.Support(); s.Mean() < lo || s.Mean() > hi {
				t.Fatalf("accepted sketch has mean %v outside its support [%v, %v]", s.Mean(), lo, hi)
			}
		}
		out, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted sketch does not re-marshal: %v", err)
		}
		var again Sketch
		if err := again.UnmarshalJSON(out); err != nil {
			t.Fatalf("accepted sketch's own bytes rejected: %v", err)
		}
	})
}

// legacyMarshal is MarshalJSON as encoding/json wrote it: the wire
// struct, every level a sorted copy.
func legacyMarshal(s *Sketch) ([]byte, error) {
	j := sketchJSON{
		V:           SchemaVersion,
		K:           s.k,
		N:           s.n,
		Levels:      make([][]float64, len(s.levels)),
		Compactions: append([]uint64{}, s.compactions...),
	}
	if s.n > 0 {
		mn, mx := s.min, s.max
		j.Min, j.Max = &mn, &mx
	}
	for h, lv := range s.levels {
		sorted := append([]float64{}, lv...)
		sort.Float64s(sorted)
		j.Levels[h] = sorted
	}
	return json.Marshal(j)
}

// legacyUnmarshal is UnmarshalJSON through encoding/json alone.
func legacyUnmarshal(data []byte) (*Sketch, error) {
	var j sketchJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	s := new(Sketch)
	return s, s.restore(&j)
}

// sameState reports whether two sketches hold the same bits.
func sameState(a, b *Sketch) bool {
	return a.k == b.k && a.n == b.n && sameLevels(a, b) &&
		math.Float64bits(a.min) == math.Float64bits(b.min) && math.Float64bits(a.max) == math.Float64bits(b.max)
}

// codecValues are the values whose JSON spelling takes every branch of
// the float writer: integral and not, signed zeros, the 'e' cutoffs at
// 1e-6 and 1e21, 2^53 ± 1 and the 1e15 integer cutoff, subnormals.
var codecValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 1e-6, 9.99e-7, 1e-7, -3.3e-9, 5e-324,
	1e21, 9.99e20, 1.5e22, -1e300, math.MaxFloat64, 1 << 53, 1<<53 - 1, 1<<53 + 2,
	1e15, 1e15 - 1, -1e15 + 1, 123456.789, 1.0 / 3,
}

// codecSketch folds fuzz bytes into a sketch: a byte below
// len(codecValues) picks one of them, any other is a scaled integer or
// fraction, so streams mix ties, signs and magnitudes.
func codecSketch(t *testing.T, data []byte, k int) *Sketch {
	t.Helper()
	s, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		x := float64(int8(b)) * float64(1+i%5)
		switch {
		case int(b) < len(codecValues):
			x = codecValues[b]
		case b%3 == 0:
			x /= 7
		}
		if err := s.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// checkDecode holds UnmarshalJSON to legacyUnmarshal on data: the same
// error, or the same state.
func checkDecode(t *testing.T, data []byte) *Sketch {
	t.Helper()
	var got Sketch
	gerr := got.UnmarshalJSON(data)
	want, werr := legacyUnmarshal(data)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("decode %q: got error %v, encoding/json %v", data, gerr, werr)
		}
		return nil
	}
	if !sameState(&got, want) {
		t.Fatalf("decode %q: state differs from encoding/json's", data)
	}
	return &got
}

// FuzzSketchCodec holds the reflection-free codec to encoding/json:
// MarshalJSON writes legacyMarshal's bytes for every sketch, and
// UnmarshalJSON decodes every input — the canonical bytes, variants
// of them that must leave the canonical reader (whitespace, reordered
// or re-cased keys) and the raw fuzz bytes — to legacyUnmarshal's
// state or error.
func FuzzSketchCodec(f *testing.F) {
	all := make([]byte, len(codecValues))
	for i := range all {
		all[i] = byte(i)
	}
	f.Add([]byte{}, uint8(0))
	f.Add(all, uint8(0))
	f.Add(bytes.Repeat(all, 5), uint8(1))
	f.Add([]byte{1, 0, 200, 77, 77, 3, 1, 0}, uint8(2))
	f.Add(bytes.Repeat([]byte{90, 91, 92, 200, 201}, 30), uint8(3))
	f.Add([]byte(`{"v":1,"k":8,"n":1,"min":9007199254740993,"max":9007199254740993,"levels":[[9007199254740993]],"compactions":[0]}`), uint8(0))
	f.Add([]byte(`{"v":1,"k":8,"n":1,"min":1E400,"max":1,"levels":[[1]],"compactions":[0]}`), uint8(0))
	f.Add([]byte(`{"v":1,"k":8,"n":1,"min":-0,"max":1.0,"levels":[[01]],"compactions":[0]}`), uint8(0))
	f.Add([]byte(`{"v":1,"k":08,"n":0,"levels":[[]],"compactions":[00]}`), uint8(0))
	f.Add([]byte(`{"v":1,"k":8,"n":0,"levels":[[]],"compactions":[0]} `), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		s := codecSketch(t, data, 8+2*int(shape%8))
		if shape&8 != 0 && len(data) > 1 {
			m, err := Merge(codecSketch(t, data[:len(data)/2], s.k), s)
			if err != nil {
				t.Fatal(err)
			}
			s = m
		}
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacyMarshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON differs from encoding/json:\n%s\nvs\n%s", got, want)
		}
		if back := checkDecode(t, got); back == nil || !bytes.Equal(mustMarshal(t, back), got) {
			t.Fatalf("canonical bytes do not round-trip: %s", got)
		}
		var j sketchJSON
		if !parseCanonical(got, &j) {
			t.Fatalf("canonical reader declined MarshalJSON's bytes: %s", got)
		}
		s1 := string(got)
		for _, v := range []string{
			" " + s1 + "\n",
			strings.Replace(s1, `"k":`, `"k": `, 1),
			reordered(t, got),
			strings.Replace(s1, `"levels"`, `"Levels"`, 1),
		} {
			if parseCanonical([]byte(v), &sketchJSON{}) {
				t.Fatalf("canonical reader took a non-canonical shape: %s", v)
			}
			if back := checkDecode(t, []byte(v)); back == nil || !bytes.Equal(mustMarshal(t, back), got) {
				t.Fatalf("variant decodes to another sketch: %s", v)
			}
		}
		checkDecode(t, data)
	})
}

// reordered writes the wire form of data with its fields in another
// order, as encoding/json would from a differently declared struct.
func reordered(t *testing.T, data []byte) string {
	t.Helper()
	var j sketchJSON
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Compactions []uint64    `json:"compactions"`
		Levels      [][]float64 `json:"levels"`
		N           uint64      `json:"n"`
		K           int         `json:"k"`
		V           int         `json:"v"`
		Max         *float64    `json:"max,omitempty"`
		Min         *float64    `json:"min,omitempty"`
	}{j.Compactions, j.Levels, j.N, j.K, j.V, j.Max, j.Min})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func mustMarshal(t *testing.T, s *Sketch) []byte {
	t.Helper()
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}
