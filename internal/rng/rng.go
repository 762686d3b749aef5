// Package rng is the single construction point for seeded randomness in
// this reproduction. Every simulation, generator and experiment derives
// its random stream from an explicit integer seed through New (or from a
// parent stream through Split), so identically-seeded runs are
// bit-reproducible. The scmplint noclock analyzer enforces the funnel:
// outside this package (and tests), constructing math/rand generators
// directly or calling the globally-seeded top-level math/rand functions
// is a lint error.
package rng

import "math/rand"

// Rand is the concrete generator type threaded through the codebase; an
// alias so callers need not import math/rand for the type name.
type Rand = rand.Rand

// New returns a deterministic generator for the given seed. Equal seeds
// yield identical streams on every platform and run.
func New(seed int64) *Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives an independent child generator from parent by drawing
// one value from it. Deriving per-subsystem streams this way keeps a
// single injected seed as the only source of randomness while letting
// subsystems consume their streams in any order (a prerequisite for the
// roadmap's parallel sweeps: each worker gets its own Split).
func Split(parent *Rand) *Rand {
	return New(parent.Int63())
}

// Hash01 is a stateless positional draw: a uniform float64 in [0, 1)
// that is a pure function of (seed, key, n), with no stream position to
// share. Sequential streams couple their consumers — every draw
// depends on how many draws happened before it anywhere in the run, so
// one extra draw reshuffles every later one. A positional draw instead
// indexes an implicit random table: consumers that agree on (key, n)
// read the same value no matter who asks first, so a link's fault-loss
// pattern is independent of draw order elsewhere. The mixer is
// splitmix64's finalizer applied to the xor-folded inputs; the top 53
// bits become the mantissa.
func Hash01(seed int64, key, n uint64) float64 {
	h := uint64(seed) ^ (key * 0x9e3779b97f4a7c15) ^ (n * 0xd1342543de82ef95)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) * (1.0 / (1 << 53))
}
