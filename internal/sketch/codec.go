package sketch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"lasvegas/internal/jsonnum"
)

// sketchJSON is the canonical wire form: levels are written sorted,
// so the bytes depend only on the retained multiset (plus the
// compaction counters that fix future parity), never on insertion
// order within a level. Empty levels are written as [], keeping the
// form canonical. MarshalJSON writes this shape directly, byte for
// byte as encoding/json would marshal the struct.
type sketchJSON struct {
	V           int         `json:"v"`
	K           int         `json:"k"`
	N           uint64      `json:"n"`
	Min         *float64    `json:"min,omitempty"`
	Max         *float64    `json:"max,omitempty"`
	Levels      [][]float64 `json:"levels"`
	Compactions []uint64    `json:"compactions"`
}

// MarshalJSON implements json.Marshaler with a canonical,
// multiset-determined byte form (see sketchJSON). A level that is
// already ascending is written in place; any other is sorted in a
// pooled copy.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	// Room for the header fields and ~8 bytes a value: an iteration
	// count and its comma.
	b := make([]byte, 0, 96+9*s.Retained())
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(s.k), 10)
	b = append(b, `,"n":`...)
	b = strconv.AppendUint(b, s.n, 10)
	if s.n > 0 {
		b = append(b, `,"min":`...)
		b = appendFloat(b, s.min)
		b = append(b, `,"max":`...)
		b = appendFloat(b, s.max)
	}
	b = append(b, `,"levels":[`...)
	sp := floatScratch.Get().(*[]float64)
	for h, lv := range s.levels {
		if h > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, x := range sortedView(lv, sp) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, x)
		}
		b = append(b, ']')
	}
	floatScratch.Put(sp)
	b = append(b, `],"compactions":[`...)
	for h, c := range s.compactions {
		if h > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, c, 10)
	}
	return append(b, "]}"...), nil
}

// appendFloat appends x as encoding/json writes a float64: an
// integral |x| < 1e15 other than -0 as its digits, anything else in
// the shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with the
// exponent's leading zero dropped.
func appendFloat(b []byte, x float64) []byte {
	if x > -1e15 && x < 1e15 && float64(int64(x)) == x && !(x == 0 && math.Signbit(x)) {
		return strconv.AppendInt(b, int64(x), 10)
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler, validating the schema
// version, the capacity, finiteness of every retained value, the
// weight invariant Σ_h |level_h|·2^h == n and the support: every
// retained value lies in [min, max], and in exact mode min and max
// are the smallest and largest retained values. The canonical shape
// MarshalJSON writes is read without reflection; any other input goes
// through encoding/json, so both accept, reject and decode alike.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var j sketchJSON
	if !parseCanonical(data, &j) {
		j = sketchJSON{}
		if err := json.Unmarshal(data, &j); err != nil {
			return err
		}
	}
	return s.restore(&j)
}

// restore validates a decoded wire form and, when it is sound, makes
// it the sketch's state, taking ownership of its slices.
func (s *Sketch) restore(j *sketchJSON) error {
	if j.V > SchemaVersion {
		return fmt.Errorf("%w: sketch schema %d, this release reads ≤ %d", ErrSketch, j.V, SchemaVersion)
	}
	base, err := New(j.K)
	if err != nil {
		return err
	}
	if len(j.Levels) == 0 || len(j.Compactions) != len(j.Levels) {
		return fmt.Errorf("%w: %d levels with %d compaction counters", ErrSketch, len(j.Levels), len(j.Compactions))
	}
	if len(j.Levels) > 64 {
		return fmt.Errorf("%w: %d levels", ErrSketch, len(j.Levels))
	}
	var weight uint64
	lo, hi := math.Inf(1), math.Inf(-1)
	for h, lv := range j.Levels {
		if len(lv) >= j.K {
			return fmt.Errorf("%w: level %d holds %d ≥ k=%d items", ErrSketch, h, len(lv), j.K)
		}
		for _, x := range lv {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%w: non-finite retained value %v", ErrSketch, x)
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		weight += uint64(len(lv)) << uint(h)
	}
	if weight != j.N {
		return fmt.Errorf("%w: retained weight %d does not cover n=%d", ErrSketch, weight, j.N)
	}
	if j.N > 0 {
		if j.Min == nil || j.Max == nil || *j.Min > *j.Max ||
			math.IsNaN(*j.Min) || math.IsInf(*j.Min, 0) || math.IsNaN(*j.Max) || math.IsInf(*j.Max, 0) {
			return fmt.Errorf("%w: bad support", ErrSketch)
		}
		if lo < *j.Min || hi > *j.Max {
			return fmt.Errorf("%w: retained values span [%v, %v], outside the support [%v, %v]", ErrSketch, lo, hi, *j.Min, *j.Max)
		}
		exact := true
		for _, c := range j.Compactions {
			exact = exact && c == 0
		}
		if exact && (lo != *j.Min || hi != *j.Max) {
			return fmt.Errorf("%w: exact sketch retains [%v, %v] but records the support [%v, %v]", ErrSketch, lo, hi, *j.Min, *j.Max)
		}
		base.min, base.max = *j.Min, *j.Max
	}
	s.k, s.n, s.min, s.max = base.k, j.N, base.min, base.max
	s.levels, s.compactions = j.Levels, j.Compactions
	s.once = base.once
	s.st.Store(nil)
	return nil
}

// parseCanonical reads data into j when it has exactly the shape
// MarshalJSON writes — the fields in its order, no whitespace, every
// count in plain digits, every value a JSON number that
// strconv.ParseFloat reads — and reports whether it did. On any other
// input it reports false, and j is to be discarded.
func parseCanonical(data []byte, j *sketchJSON) bool {
	p := wireParser{b: data, ok: true}
	p.lit(`{"v":`)
	j.V = int(p.count())
	p.lit(`,"k":`)
	j.K = int(p.count())
	p.lit(`,"n":`)
	j.N = p.count()
	if p.try(`,"min":`) {
		mn := p.float()
		p.lit(`,"max":`)
		mx := p.float()
		j.Min, j.Max = &mn, &mx
	}
	p.lit(`,"levels":[`)
	for p.ok && !p.try(`]`) {
		if len(j.Levels) > 0 {
			p.lit(`,`)
		}
		p.lit(`[`)
		lv := make([]float64, 0, min(p.listLen(), j.K))
		for p.ok && !p.try(`]`) {
			if len(lv) > 0 {
				p.lit(`,`)
			}
			lv = append(lv, p.float())
		}
		j.Levels = append(j.Levels, lv)
	}
	p.lit(`,"compactions":[`)
	j.Compactions = []uint64{}
	for p.ok && !p.try(`]`) {
		if len(j.Compactions) > 0 {
			p.lit(`,`)
		}
		j.Compactions = append(j.Compactions, p.count())
	}
	p.lit(`}`)
	return p.ok && p.i == len(p.b)
}

// wireParser is parseCanonical's cursor: ok turns false at the first
// byte off the canonical shape, and every later step is a no-op.
type wireParser struct {
	b  []byte
	i  int
	ok bool
}

// try consumes lit (never empty) if the input continues with it. The
// first byte is compared on its own, so the one-byte separators of
// the value lists cost no call once try is inlined.
func (p *wireParser) try(lit string) bool {
	n := len(lit)
	if !p.ok || len(p.b)-p.i < n || p.b[p.i] != lit[0] ||
		(n > 1 && string(p.b[p.i+1:p.i+n]) != lit[1:]) {
		return false
	}
	p.i += n
	return true
}

// listLen returns how many numbers the list the input continues with
// holds, judged by its commas up to the next ']', so a level is
// allocated at its exact length.
func (p *wireParser) listLen() int {
	if !p.ok {
		return 0
	}
	b := p.b[p.i:]
	end := bytes.IndexByte(b, ']')
	if end <= 0 {
		return 0
	}
	return bytes.Count(b[:end], []byte{','}) + 1
}

// lit consumes lit, or fails.
func (p *wireParser) lit(lit string) {
	if !p.try(lit) {
		p.ok = false
	}
}

// maxCountDigits bounds a count token: 18 digits fit an int and a
// uint64 alike, so a longer one is left to encoding/json's range check.
const maxCountDigits = 18

// count consumes a non-negative integer in plain digits (no sign, no
// leading zero), or fails.
func (p *wireParser) count() uint64 {
	if !p.ok {
		return 0
	}
	b := p.b[p.i:]
	n := jsonnum.DigitsEnd(b, 0)
	if n == 0 || n > maxCountDigits || (b[0] == '0' && n > 1) {
		p.ok = false
		return 0
	}
	p.i += n
	return digitsValue(b[:n])
}

// float consumes a JSON number and returns the float64
// strconv.ParseFloat reads from it, or fails — also on a number
// ParseFloat rejects, whose error encoding/json reports.
func (p *wireParser) float() float64 {
	if !p.ok {
		return 0
	}
	x, n := jsonnum.Parse(p.b[p.i:])
	p.i += n
	p.ok = n > 0
	return x
}

// digitsValue returns the value of a run of at most 19 decimal digits.
func digitsValue(b []byte) uint64 {
	var u uint64
	for _, c := range b {
		u = u*10 + uint64(c-'0')
	}
	return u
}
