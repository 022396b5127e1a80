// Package rng provides the fast, deterministic random number machinery
// used on the per-packet hot paths of the Memento algorithms.
//
// Three samplers matter for the paper's evaluation (Section 6.2,
// Figure 7 discussion):
//
//   - A raw xoshiro256** generator (Source) for general use.
//   - A Bernoulli sampler implemented as a single 32-bit compare against
//     a precomputed threshold (Memento's τ-coin).
//   - A geometric sampler (inversion method) as used by RHHH to skip
//     packets between updates.
//
// All types here are deliberately not safe for concurrent use; each
// sketch owns its own sampler, matching the single-writer design of the
// data structures they drive.
package rng

import "math"

// splitmix64 advances the seed-expansion generator used to initialize
// xoshiro state. It is the standard SplitMix64 step.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** pseudo random generator. The zero value is
// not usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded deterministically from seed. Two Sources
// built from the same seed produce identical streams, which the test
// suite and the reproducible benchmark harness rely on.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed resets the generator to the deterministic state derived from seed.
func (r *Source) Seed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// A few warm-up rounds so that near-zero seeds decorrelate quickly.
	for i := 0; i < 8; i++ {
		r.Uint64()
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
//
//memento:noalloc
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits (upper half of
// the 64-bit output, which has the best statistical quality).
func (r *Source) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0, 1).
//
//memento:noalloc
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method: unbiased and division-free
// in the common case.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// Bernoulli samples independent events with a fixed probability using a
// single 32-bit comparison per trial.
type Bernoulli struct {
	src       *Source
	threshold uint32
	p         float64
}

// NewBernoulli returns a sampler that reports true with probability p.
// p is clamped to [0, 1].
func NewBernoulli(src *Source, p float64) *Bernoulli {
	b := &Bernoulli{src: src}
	b.SetP(p)
	return b
}

// SetP changes the sampling probability.
func (b *Bernoulli) SetP(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	b.p = p
	// threshold semantics: sample ⇔ r < threshold where r is uniform in
	// [0, 2^32). Sample short-circuits on p == 1, so the threshold only
	// needs to be meaningful for p < 1.
	if p < 1 {
		b.threshold = uint32(p * (1 << 32))
	}
}

// Sample reports whether the event fires this trial.
//
//memento:noalloc
func (b *Bernoulli) Sample() bool {
	if b.p >= 1 {
		return true
	}
	return b.src.Uint32() < b.threshold
}

// Geometric samples the number of failures before the first success of
// a Bernoulli(p) process, via inversion: floor(ln U / ln(1-p)). This is
// the sampler RHHH uses to decide how many packets to skip between
// updates.
type Geometric struct {
	src   *Source
	invLn float64 // 1 / ln(1-p)
	p     float64
}

// NewGeometric returns a geometric sampler with success probability p,
// 0 < p <= 1.
func NewGeometric(src *Source, p float64) *Geometric {
	g := &Geometric{src: src}
	g.SetP(p)
	return g
}

// SetP changes the success probability.
func (g *Geometric) SetP(p float64) {
	if p <= 0 {
		p = 1e-12
	}
	if p > 1 {
		p = 1
	}
	g.p = p
	if p == 1 {
		g.invLn = 0
	} else {
		g.invLn = 1 / math.Log1p(-p)
	}
}

// Next returns the number of failures preceding the next success
// (0 means the very next trial succeeds).
//
//memento:noalloc
func (g *Geometric) Next() int {
	if g.p >= 1 {
		return 0
	}
	u := g.src.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	n := math.Log(u) * g.invLn
	if n > math.MaxInt32 {
		n = math.MaxInt32
	}
	return int(n)
}
