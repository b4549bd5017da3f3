package sim

import (
	"encoding/binary"
	"math/rand"
	"slices"
)

// RNG is a deterministic random source for the simulation. A given
// experiment configuration reproduces identical file contents, jitter
// and DNS shuffles.
//
// Repetitions of an experiment derive child RNGs via Fork, which mixes
// the repetition index into the seed stream: each repetition sees
// different randomness, but the whole campaign is still a pure function
// of the top-level seed.
//
// The engine is a PCG generator seeded through SplitMix64: Fork is
// O(1) — two SplitMix64 rounds build the whole child state — and
// Bytes/Fill are a tight word-copy loop. math/rand only supplies the
// rand.Rand convenience methods (Intn, Float64, ...) on top of it;
// permute with PermInto, not the promoted rand.Rand Perm, which does
// not mirror on an antithetic stream. Children inherit their parent's
// antithetic mask (see NewAntitheticRNG).
type RNG struct {
	*rand.Rand
	seed int64
	pcg  *pcg
}

// NewRNG returns a deterministic source for the given seed.
func NewRNG(seed int64) *RNG {
	p := newPCG(seed)
	return &RNG{Rand: rand.New(p), seed: seed, pcg: p}
}

// NewAntitheticRNG returns the mirror of NewRNG(seed): the same PCG
// engine and state schedule, but every 64-bit output is bitwise
// complemented. Uniform draws reflect across the midpoint (Int63
// becomes 2^63-1-Int63, Float64 becomes ~1-Float64), so a simulation
// driven by the antithetic stream sees jitter negatively correlated
// with its NewRNG(seed) twin — the classical antithetic-variates
// construction the adaptive campaign driver uses to shrink the
// variance of pair means. Children keep the mask: Fork of an
// antithetic source is the antithetic of Fork of the plain source.
func NewAntitheticRNG(seed int64) *RNG {
	p := newPCG(seed)
	p.mask = ^uint64(0)
	return &RNG{Rand: rand.New(p), seed: seed, pcg: p}
}

// Seed returns the seed this source was created with.
func (r *RNG) Seed() int64 { return r.seed }

// Reseed resets the source in place to the exact state a fresh source
// for seed would start in, without allocating — the hot-loop form of
// NewRNG for callers that burn one short-lived stream per simulated
// event (the fleet engine reseeds one RNG per user slot instead of
// allocating per session). The reseeded stream is bit-identical to
// NewRNG(seed)'s; an antithetic source stays antithetic, mirroring
// Fork.
func (r *RNG) Reseed(seed int64) {
	r.seed = seed
	s0 := splitmix64(uint64(seed))
	r.pcg.state = s0
	r.pcg.inc = splitmix64(s0) | 1
}

// ForkSeed returns the seed a Fork(label) child would be created with:
// a SplitMix64-style hash of (parent seed, label), so children do not
// overlap with the parent stream. Exposed so content descriptors can
// name a child stream without instantiating it.
func (r *RNG) ForkSeed(label int64) int64 {
	z := uint64(r.seed) + 0x9e3779b97f4a7c15*uint64(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Fork derives an independent child source in O(1); the child of an
// antithetic source is antithetic.
func (r *RNG) Fork(label int64) *RNG {
	seed := r.ForkSeed(label)
	if r.pcg.mask != 0 {
		return NewAntitheticRNG(seed)
	}
	return NewRNG(seed)
}

// Jitter returns a duration uniformly distributed in [base-spread/2,
// base+spread/2], never below zero. It models measurement noise such as
// scheduling delay in the test computer.
//
// On an antithetic stream the deviate is the exact reflection of what
// the plain twin draws (spread-1-x), so paired repetitions see
// mirrored noise. The reflection must be applied to the uniform
// deviate, not inherited from the complemented words: Int63n reduces
// v % n, and the complement of v maps to (M - x) mod n with
// M = (2^63-1) mod n — a reflection around a spread-dependent pivot
// whose correlation with x averages to zero over arbitrary spreads,
// which would silently void the variance reduction.
func (r *RNG) Jitter(base, spread int64) int64 {
	if spread <= 0 {
		return base
	}
	v := base - spread/2 + r.uniformPaired(spread)
	if v < 0 {
		v = 0
	}
	return v
}

// uniformPaired draws uniformly from [0, n) such that the antithetic
// stream yields exactly n-1-x when the plain stream yields x. On a
// plain stream it is Int63n. On an antithetic stream it
// replays math/rand's Int63n — same word consumption, including the
// rejection loop — on the un-complemented words, then reflects the
// accepted deviate, so the two streams stay step-aligned.
func (r *RNG) uniformPaired(n int64) int64 {
	if r.pcg.mask == 0 {
		return r.Int63n(n)
	}
	if n&(n-1) == 0 {
		// Power-of-two masks already reflect bit-by-bit.
		return r.Int63n(n)
	}
	p := r.pcg
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := int64(^p.Uint64() >> 1) // the plain twin's draw
	for v > max {
		v = int64(^p.Uint64() >> 1)
	}
	return n - 1 - v%n
}

// PermInto writes a pseudo-random permutation of [0, len(dst)) into
// dst and returns it, without allocating. On a plain stream it is
// math/rand's Perm unchanged. On an antithetic stream it returns the
// REVERSE of the plain twin's permutation, consuming the same stream
// steps: complementing the raw words would just produce an unrelated
// permutation (the complement does not survive Fisher-Yates' modular
// index draws), whereas the reversal is the antithetic construction
// for discrete choices — a consumer that takes a k-prefix of the
// permutation (e.g. DNS answer rotation) receives the complementary
// end of the pool, so rare-outcome draws are negatively correlated
// across an antithetic pair.
func (r *RNG) PermInto(dst []int) []int {
	// math/rand's Perm loop, verbatim (including the i = 0 draw it
	// keeps for stream compatibility), run on the un-complemented
	// words so an antithetic source replays its plain twin in
	// lockstep before reversing.
	mask := r.pcg.mask
	r.pcg.mask = 0
	for i := range dst {
		j := r.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	r.pcg.mask = mask
	if mask != 0 {
		slices.Reverse(dst)
	}
	return dst
}

// Fill fills dst with random bytes: a plain word-copy loop — eight
// bytes per generator step, no per-byte state — which is what makes
// large file materialisation cheap enough to run lazily at plan time.
func (r *RNG) Fill(dst []byte) {
	p := r.pcg
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], p.Uint64())
	}
	if i < len(dst) {
		v := p.Uint64()
		for ; i < len(dst); i++ {
			dst[i] = byte(v)
			v >>= 8
		}
	}
}

// pcg is a PCG-RXS-M-XS-64 generator: a 64-bit LCG state stepped once
// per output, with an output permutation (random xorshift, multiply,
// xorshift) that makes the stream statistically sound. One multiply
// and a handful of shifts per 64 output bits — against math/rand's
// 607-word source state and array-walk per call — is what turns file
// materialisation into a memory-bandwidth problem.
type pcg struct {
	state uint64
	inc   uint64 // stream selector; must be odd
	mask  uint64 // xor applied to every output: 0, or ^0 for antithetic
}

// newPCG builds a generator from a seed via two SplitMix64 rounds: one
// for the initial state, one for the stream increment. This is the
// whole cost of RNG.Fork.
func newPCG(seed int64) *pcg {
	s0 := splitmix64(uint64(seed))
	s1 := splitmix64(s0)
	return &pcg{state: s0, inc: s1 | 1}
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.), the standard
// seed-expansion hash for PCG/xoshiro-family generators.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 steps the LCG and permutes the previous state into an output.
func (p *pcg) Uint64() uint64 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	word := ((old >> ((old >> 59) + 5)) ^ old) * 12605985483714917081
	return ((word >> 43) ^ word) ^ p.mask
}

// Int63 makes pcg a rand.Source.
func (p *pcg) Int63() int64 { return int64(p.Uint64() >> 1) }

// Seed makes pcg a full rand.Source; math/rand never calls it outside
// rand.Rand.Seed, which this package does not use.
func (p *pcg) Seed(seed int64) { *p = *newPCG(seed) }
