package sketch

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Sorting a level. Every path below gives the bits sort.Float64s
// gives: on finite values an ascending sequence is unique except for
// the order of -0 against +0, so a level holding both is left to
// sort.Float64s, and every other level may be sorted any way at all.

// sortLevel sorts buf ascending, bit-identically to sort.Float64s: by
// merging its ascending runs when it has at most maxMergeRuns of them
// (every level above 0), else by an LSD radix sort (level 0, which
// holds the stream in arrival order).
func sortLevel(buf []float64) {
	if mergeRuns(buf) {
		return
	}
	if !radixSort(buf) {
		sort.Float64s(buf)
	}
}

// sortedView returns lv in sort.Float64s order: lv itself when every
// adjacent pair is strictly ascending or bit-identical (a level read
// back from the canonical form is), else a copy sorted in *scratch.
func sortedView(lv []float64, scratch *[]float64) []float64 {
	if ascending(lv) {
		return lv
	}
	*scratch = append((*scratch)[:0], lv...)
	sortLevel(*scratch)
	return *scratch
}

// ascending reports whether every adjacent pair of xs is strictly
// ascending or bit-identical, so that sorting xs could not move a bit.
func ascending(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if !(xs[i-1] < xs[i]) && math.Float64bits(xs[i-1]) != math.Float64bits(xs[i]) {
			return false
		}
	}
	return true
}

// maxMergeRuns bounds the ascending runs a compaction merges instead
// of sorting. A level above 0 only ever receives promotions, and each
// promotion is an ascending run (every other item of a sorted level),
// so at capacity it holds a leftover plus two runs; a merged level
// holds the runs of both parents.
const maxMergeRuns = 4

// floatScratch pools the merge and sorted-copy buffers, and keyScratch
// the radix keys, so a stored sketch keeps no scratch memory of its
// own.
var (
	floatScratch = sync.Pool{New: func() any { return new([]float64) }}
	keyScratch   = sync.Pool{New: func() any { return new([]uint64) }}
)

// mergeRuns sorts buf in place by merging its ascending runs when it
// has at most maxMergeRuns of them, and reports whether it did; it
// leaves buf untouched otherwise, and when buf holds both -0 and +0.
func mergeRuns(buf []float64) bool {
	var starts [maxMergeRuns + 1]int
	runs := 1
	var negZero, posZero bool
	for i, x := range buf {
		if x == 0 {
			if math.Signbit(x) {
				negZero = true
			} else {
				posZero = true
			}
		}
		if i > 0 && x < buf[i-1] {
			if runs == maxMergeRuns {
				return false
			}
			starts[runs] = i
			runs++
		}
	}
	if negZero && posZero {
		return false
	}
	if runs == 1 {
		return true
	}
	starts[runs] = len(buf)
	sp := floatScratch.Get().(*[]float64)
	out := slices.Grow((*sp)[:0], len(buf))[:len(buf)]
	heads := starts
	for j := range out {
		best := -1
		for r := 0; r < runs; r++ {
			if heads[r] < starts[r+1] && (best < 0 || buf[heads[r]] < buf[heads[best]]) {
				best = r
			}
		}
		out[j] = buf[heads[best]]
		heads[best]++
	}
	copy(buf, out)
	*sp = out
	floatScratch.Put(sp)
	return true
}

// radixSort sorts buf ascending by an LSD radix sort, one byte per
// pass, on keys whose unsigned order is the float order: a
// non-negative value's bits with the sign bit set, a negative value's
// bits inverted. A pass whose byte is the same across the whole level
// is skipped — iteration counts leave most low mantissa bytes zero.
// It reports false, leaving buf untouched, when buf holds both -0 and
// +0 (the keys order them, sort.Float64s does not).
func radixSort(buf []float64) bool {
	n := len(buf)
	if n < 2 {
		return true
	}
	kp := keyScratch.Get().(*[]uint64)
	defer keyScratch.Put(kp)
	*kp = slices.Grow((*kp)[:0], 2*n)[:2*n]
	src, dst := (*kp)[:n], (*kp)[n:]
	var counts [8][256]uint32
	var negZero, posZero bool
	for i, x := range buf {
		b := math.Float64bits(x)
		if b<<1 == 0 {
			if b != 0 {
				negZero = true
			} else {
				posZero = true
			}
		}
		k := b ^ (uint64(int64(b)>>63) | 1<<63)
		src[i] = k
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if negZero && posZero {
		return false
	}
	for p := range counts {
		c := &counts[p]
		shift := 8 * uint(p)
		if c[byte(src[0]>>shift)] == uint32(n) {
			continue
		}
		var sum uint32
		for d, cnt := range c {
			c[d] = sum
			sum += cnt
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		buf[i] = math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
	}
	return true
}
