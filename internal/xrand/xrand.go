// Package xrand provides deterministic, splittable pseudo-random number
// generation for Las Vegas experiments.
//
// Every walker of a multi-walk run and every repetition of a sequential
// campaign receives its own independent stream derived from a single
// user-visible seed, so whole experiments are reproducible bit-for-bit
// regardless of scheduling order. The generator is xoshiro256++ seeded
// through splitmix64, the combination recommended by Blackman & Vigna;
// both are implemented here because the repository is stdlib-only and
// math/rand's global state is unsuitable for concurrent walkers.
package xrand

import "math"

// splitmix64 advances a 64-bit state and returns the next output.
// It is used both to seed xoshiro streams and to derive child seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256++ pseudo-random generator. It is not safe for
// concurrent use; derive one stream per goroutine with Split.
type Rand struct {
	s [4]uint64

	// cached second variate from the polar normal method
	spare     float64
	haveSpare bool
}

// New returns a generator seeded from seed via splitmix64. Distinct
// seeds give statistically independent streams; seed 0 is valid.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro forbids the all-zero state; splitmix64 cannot produce four
	// zero outputs in a row, but guard anyway for future refactors.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives the i-th child stream of r's seed without disturbing r.
// Children of distinct indices, and the parent, do not overlap in any
// statistically observable way (they are xoshiro streams with seeds
// drawn from independent splitmix64 positions).
func (r *Rand) Split(i uint64) *Rand {
	// Mix the parent's state with the child index through splitmix64.
	sm := r.s[0] ^ (r.s[1] << 1) ^ (0x632be59bd9b4e019 * (i + 1))
	return New(splitmix64(&sm))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection avoids modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in the open interval (0, 1),
// suitable for feeding quantile functions that diverge at the ends.
func (r *Rand) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Perm fills a new slice with a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher–Yates).
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Norm returns a standard normal variate (polar Marsaglia method; the
// spare value is cached, so consecutive calls cost one square root on
// average).
func (r *Rand) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare, r.haveSpare = v*f, true
		return u * f
	}
}

// Exp returns an exponential variate with rate 1 (mean 1).
func (r *Rand) Exp() float64 { return -math.Log(r.Float64Open()) }
