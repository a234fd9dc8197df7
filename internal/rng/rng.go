// Package rng supplies deterministic pseudo-random streams for the world
// generator and the data-source simulators.
//
// Reproducibility is a hard requirement: every experiment in the paper
// reproduction must regenerate identical numbers for a given seed, across
// machines and Go releases. We therefore implement our own generator
// (splitmix64 seeding a xoshiro256** state) instead of relying on math/rand,
// and we derive independent sub-streams from string labels so that adding a
// new consumer of randomness does not perturb existing ones.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic PRNG. The zero value is not usable; construct
// with New or derive with Sub.
type Stream struct {
	s [4]uint64
}

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	x := seed
	for i := range st.s {
		x = splitmix64(&x)
		st.s[i] = x
	}
	// A few warm-up rounds decorrelate nearby seeds.
	for i := 0; i < 8; i++ {
		st.Uint64()
	}
	return st
}

// Sub derives an independent child stream from a label. Two Sub calls with
// the same label on streams in the same state yield identical children;
// different labels yield statistically independent children.
func (s *Stream) Sub(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix the label hash with the parent state rather than the parent
	// output so deriving children does not advance the parent.
	return New(h.Sum64() ^ rotl(s.s[0], 17) ^ s.s[2])
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits (xoshiro256**).
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling, simplified: rejection
	// sampling on the high bits keeps the distribution exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// IntBetween returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (s *Stream) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("rng: IntBetween with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// FloatBetween returns a uniform float in [lo, hi).
func (s *Stream) FloatBetween(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.Float64() < p }

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (s *Stream) Norm(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNorm returns a log-normally distributed value whose underlying normal
// has the given mu and sigma.
func (s *Stream) LogNorm(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles the slice in place (Fisher–Yates).
func (s *Stream) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
