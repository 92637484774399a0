// Package jsonnum scans JSON numbers in place, for the reflection-free
// fast paths of the NDJSON record reader and the sketch wire codec.
// Every function agrees with encoding/json on which bytes form a
// number and with strconv.ParseFloat, the conversion encoding/json
// uses, on its value, so a fast path built on them accepts, rejects
// and reads exactly what the decoder would.
package jsonnum

import "strconv"

// maxExactDigits bounds the plain-digit tokens Parse reads by
// accumulation: below 10^15 < 2^53 every integer is a float64, so
// float64 of the accumulated value has the bits strconv.ParseFloat
// returns. The same bound lets Check skip ParseFloat, which fails on
// a JSON number only out of range.
const maxExactDigits = 15

// Parse reads the JSON number that starts b and returns the float64
// strconv.ParseFloat reads from it, with the number's length n; n is
// 0 when b does not start with a number or ParseFloat rejects it. A
// plain integer of 1–15 digits is accumulated in one scan instead.
func Parse(b []byte) (x float64, n int) {
	// Read up to maxExactDigits+1 plain digits in one pass; one more
	// digit than the bound sends the token to ParseFloat.
	var u uint64
	for n < len(b) && n <= maxExactDigits && '0' <= b[n] && b[n] <= '9' {
		u = u*10 + uint64(b[n]-'0')
		n++
	}
	if n > 0 && n <= maxExactDigits && (b[0] != '0' || n == 1) &&
		(n == len(b) || (b[n] != '.' && b[n] != 'e' && b[n] != 'E')) {
		return float64(u), n
	}
	if n, _, _ = numberLen(b); n == 0 {
		return 0, 0
	}
	x, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		return 0, 0
	}
	return x, n
}

// Check returns the length of the JSON number that starts b, or 0
// when b does not start with one or strconv.ParseFloat rejects it. It
// calls ParseFloat only when the scan leaves a range error possible:
// a number with no exponent and at most 15 integer digits is below
// 10^15.
func Check(b []byte) int {
	n, intDigits, exp := numberLen(b)
	if n > 0 && (exp || intDigits > maxExactDigits) {
		if _, err := strconv.ParseFloat(string(b[:n]), 64); err != nil {
			return 0
		}
	}
	return n
}

// numberLen returns the length n of the JSON number that starts b,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or 0 when b does
// not start with one, together with the number of digits before its
// fraction and whether it has an exponent — what its one scan already
// knows about the number's range.
func numberLen(b []byte) (n, intDigits int, exp bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = DigitsEnd(b, i+1)
	default:
		return 0, 0, false
	}
	intDigits = i - start
	if i < len(b) && b[i] == '.' {
		j := DigitsEnd(b, i+1)
		if j == i+1 {
			return 0, 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := DigitsEnd(b, i)
		if j == i {
			return 0, 0, false
		}
		i, exp = j, true
	}
	return i, intDigits, exp
}

// DigitsEnd returns the index of the first non-digit in b at or after i.
func DigitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
