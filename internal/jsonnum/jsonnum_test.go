package jsonnum

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// FuzzNumber checks the scanner differentially: numberLen against the
// numbers json.Valid accepts, its digit count and exponent flag
// against the token's text, and Parse and Check against
// strconv.ParseFloat.
func FuzzNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "01", "1.", "1e", "1e+",
		"999999999999999", "1000000000000000", "1e400", "-",
		"12.5e-3}", "7,", "-0.0", "1.5e", "0.x",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 64 {
			b = b[:64]
		}
		n, intDigits, exp := numberLen(b)

		// longest is the longest prefix json.Valid accepts as a number.
		longest := 0
		if len(b) > 0 && (b[0] == '-' || '0' <= b[0] && b[0] <= '9') {
			for k := 1; k <= len(b); k++ {
				if !isSpace(b[k-1]) && json.Valid(b[:k]) {
					longest = k
				}
			}
		}
		if n > 0 && n != longest {
			t.Fatalf("numberLen(%q) = %d, longest valid number prefix %d", b, n, longest)
		}
		// A zero length with a valid prefix means the bytes after it
		// open a fraction or an exponent that never gets its digits.
		if n == 0 && longest > 0 && (longest == len(b) || !bytes.ContainsRune([]byte(".eE"), rune(b[longest]))) {
			t.Fatalf("numberLen(%q) = 0, but %q is a whole number", b, b[:longest])
		}

		if n > 0 {
			tok := bytes.TrimPrefix(b[:n], []byte("-"))
			wantDigits := len(tok)
			if i := bytes.IndexAny(tok, ".eE"); i >= 0 {
				wantDigits = i
			}
			if intDigits != wantDigits {
				t.Fatalf("numberLen(%q) intDigits = %d, want %d", b, intDigits, wantDigits)
			}
			if wantExp := bytes.ContainsAny(tok, "eE"); exp != wantExp {
				t.Fatalf("numberLen(%q) exp = %v, want %v", b, exp, wantExp)
			}
		}

		x, m := Parse(b)
		c := Check(b)
		if n == 0 {
			if m != 0 || c != 0 {
				t.Fatalf("no number in %q, but Parse = (%v, %d), Check = %d", b, x, m, c)
			}
			return
		}
		want, err := strconv.ParseFloat(string(b[:n]), 64)
		if err != nil {
			if m != 0 || c != 0 {
				t.Fatalf("ParseFloat rejects %q (%v), but Parse = (%v, %d), Check = %d", b[:n], err, x, m, c)
			}
			return
		}
		if m != n || c != n {
			t.Fatalf("%q: Parse length %d, Check length %d, numberLen %d", b, m, c, n)
		}
		if math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("Parse(%q) = %v (%#x), ParseFloat = %v (%#x)", b, x, math.Float64bits(x), want, math.Float64bits(want))
		}
	})
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
