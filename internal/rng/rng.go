// Package rng provides the deterministic random-number machinery used by
// every stochastic component of the repository: the simulation generators
// (Section V-A of the paper), the two randomization steps of the off-sample
// repair (Algorithm 2), and the Monte-Carlo experiment harness.
//
// All randomness flows through an explicit *RNG value seeded by the caller,
// so every experiment in cmd/repro is exactly reproducible. Independent
// child generators for parallel Monte-Carlo replicates are derived with
// Split, which uses a SplitMix64-style hash of the parent seed and the child
// index so that replicate streams are decorrelated but stable.
package rng

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random generator with the sampling methods
// needed by the repair algorithms. It wraps the standard library's PCG
// source. An RNG is not safe for concurrent use; derive one per goroutine
// with Split.
type RNG struct {
	src *rand.Rand
	// seed records the construction seed so children can be derived
	// deterministically even after the stream has advanced.
	seed uint64
}

// New returns an RNG seeded with the given value. Two RNGs constructed with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	return &RNG{
		src:  rand.New(rand.NewPCG(seed, splitmix64(seed+0x9e3779b97f4a7c15))),
		seed: seed,
	}
}

// splitmix64 is the SplitMix64 finalizer, used to spread seeds so that
// consecutive integer seeds yield unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed reports the seed the generator was constructed with.
func (r *RNG) Seed() uint64 { return r.seed }

// Split derives an independent child generator for stream index i.
// Splitting is a pure function of (parent seed, i): it does not consume or
// depend on the parent's stream position, which lets parallel Monte-Carlo
// replicates be launched in any order with identical results.
func (r *RNG) Split(i uint64) *RNG {
	child := splitmix64(r.seed ^ splitmix64(i+1))
	return New(child)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0, matching
// the standard library contract.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uniform returns a uniform sample in [lo, hi). The repairer's jitter
// applies the same arithmetic to a uniform it drew earlier.
//
//otfair:testonly-ok the classify, ot, fairmetrics and rng tests draw uniform noise through it
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Norm returns a standard normal sample.
func (r *RNG) Norm() float64 { return r.src.NormFloat64() }

// Normal returns a sample from N(mean, stddev²).
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma²)); used by the synthetic Adult
// generator for right-skewed age-like quantities.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Bernoulli returns true with probability p. Probabilities outside [0, 1]
// are clamped, so callers may pass the raw interpolation ratio from
// Algorithm 2 line 6 without pre-clamping.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }
