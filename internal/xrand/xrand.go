// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator and the distribution primitives used throughout the
// repository.
//
// Every experiment in this repository is seeded, and results must be
// reproducible bit-for-bit across runs and platforms. The standard library's
// math/rand is seedable but its stream is not guaranteed stable across Go
// releases, so we implement our own generator: splitmix64 for seeding and
// xoshiro256** for the main stream, both public-domain algorithms with
// well-studied statistical properties.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; use Split to derive independent
// generators for concurrent work.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand a single seed word into the xoshiro256** state, and to
// derive child seeds in Split.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given value. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** requires a nonzero state; splitmix64 of any seed is
	// astronomically unlikely to produce all-zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of the
// receiver's. The receiver is advanced.
func (r *RNG) Split() *RNG {
	seed := r.Uint64()
	return New(seed ^ 0xa5a5a5a5a5a5a5a5)
}

// NewStream returns the idx-th generator of the family derived from base.
// Unlike Split, which keys each child on call order, NewStream keys on idx
// alone: the same (base, idx) pair always yields the same stream no matter
// how many sibling streams exist or in what order they are created. That
// positional derivation is what lets parallel per-group sampling stay
// bit-for-bit independent of worker count and scheduling — group i's
// randomness is a pure function of the run seed and i, never of which
// goroutine drew first. Statistical independence across idx comes from
// pushing base and idx through two splitmix64 finalization rounds before
// seeding xoshiro256**.
func NewStream(base, idx uint64) *RNG {
	r := Stream(base, idx)
	return &r
}

// Stream is NewStream by value: identical state for the same (base, idx),
// but allocation-free, so a caller with k streams can lay them out in one
// contiguous slice instead of k heap objects.
func Stream(base, idx uint64) RNG {
	sm := base
	mixed := splitmix64(&sm)
	sm = mixed ^ (idx+1)*0x9e3779b97f4a7c15
	seed := splitmix64(&sm)
	var r RNG
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// Same all-zero guard as New.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits scaled into [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Int64n(int64(n)))
}

// Int64n returns a uniformly distributed int64 in [0, n). It panics if
// n <= 0. Lemire's nearly-divisionless rejection method keeps the result
// unbiased.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64n called with non-positive n")
	}
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int64(hi)
		}
	}
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. It is a little slower than a ziggurat but has no tables and is
// trivially portable.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
