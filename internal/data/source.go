package data

import "math/rand"

// This file holds the generator every synthetic stream draws from: math/rand's
// additive lagged Fibonacci generator (607 words, tap 273), run in-tree so that
// seeding it is cheap. math/rand seeds by a serial chain of 1 841 divide-based
// LCG steps x ← 48271·x mod (2³¹−1), about 14 µs a seed, and a batch seeds one
// generator per table stream. Step k's value is 48271^k·x₀, so Seed here
// computes every value as an independent product with a power precomputed at
// init, reduced without a division. The outputs, and so every Float64, Intn,
// NormFloat64, Zipf and Shuffle drawn through rand.New over this source, are
// the ones rand.NewSource gives for the same seed.

const (
	srcLen  = 607             // words of generator state
	srcTap  = 273             // lag of the second term
	lcgMod  = 1<<31 - 1       // the seeding LCG's modulus, a Mersenne prime
	lcgMul  = 48271           // the seeding LCG's multiplier
	lcgSkip = 20              // LCG steps Seed discards before the first word
	seedFix = 89482311        // the seed math/rand uses for one ≡ 0 (mod 2³¹−1)
	srcMask = 1<<63 - 1       // Int63's mask
	feed0   = srcLen - srcTap // the feed index a seeded generator starts at
)

var (
	// lcgPow[i][j] = 48271^(lcgSkip+1+3i+j) mod (2³¹−1): the factor that
	// turns the seed into the j-th of the three LCG values word i is built
	// from.
	lcgPow [srcLen][3]uint64
	// cooked holds math/rand's rngCooked words, which every seeded state is
	// XORed with (see init).
	cooked [srcLen]uint64
)

// source is a rand.Source64 with math/rand's generator and seeding: after
// Seed(s) it yields exactly what rand.NewSource(s) does.
type source struct {
	tap, feed int
	vec       [srcLen]uint64
}

// newRand returns rand.New over a source seeded with seed: the generator
// rand.New(rand.NewSource(seed)) builds, draw for draw.
func newRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed puts s in the state rand.NewSource(seed) starts in. The seed is
// folded as math/rand folds it: mod 2³¹−1 into (0, 2³¹−1), with 0 replaced.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, feed0
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = seedFix
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &lcgPow[i]
		s.vec[i] = (mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])) ^ cooked[i]
	}
}

// Uint64 returns the generator's next 64-bit output.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next output's low 63 bits.
func (s *source) Int63() int64 { return int64(s.Uint64() & srcMask) }

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1): since 2³¹ ≡ 1, folding
// the high bits onto the low ones keeps the residue, and two folds bring the
// product below 2³¹+2.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&lcgMod + t>>31
	t = t&lcgMod + t>>31
	if t >= lcgMod {
		t -= lcgMod
	}
	return t
}

// init precomputes the LCG powers and recovers math/rand's cooked words
// through its public API. Right after seeding, output k (from 1) is
// vec[feed0−k] + vec[srcLen−k] modulo srcLen, where a word the feed index has
// already passed holds the output it was updated to. Outputs srcTap+1 …
// srcLen add a fresh word to output k−srcTap, which gives vec[0 … 60] and
// vec[feed0 …]; outputs 1 … srcTap add two fresh words, the second of them
// now known, which gives the rest. XORing the seed's own LCG words out of the
// recovered state leaves the cooked words.
func init() {
	p := uint64(1)
	for range lcgSkip + 1 {
		p = mulMod(p, lcgMul)
	}
	for i := range lcgPow {
		for j := range lcgPow[i] {
			lcgPow[i][j] = p
			p = mulMod(p, lcgMul)
		}
	}

	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64) //nolint:gosec // deterministic synthetic data
	var out [srcLen + 1]uint64                  // out[k] is output k
	for k := 1; k <= srcLen; k++ {
		out[k] = ref.Uint64()
	}
	var vec [srcLen]uint64 // the state rand.NewSource(seed) starts in
	for k := srcTap + 1; k <= srcLen; k++ {
		vec[(feed0-k+srcLen)%srcLen] = out[k] - out[k-srcTap]
	}
	for k := 1; k <= srcTap; k++ {
		vec[feed0-k] = out[k] - vec[srcLen-k]
	}
	var s source // cooked is still zero: Seed leaves the LCG words alone
	s.Seed(seed)
	for i := range cooked {
		cooked[i] = vec[i] ^ s.vec[i]
	}
}
