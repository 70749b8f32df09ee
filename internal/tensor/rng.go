package tensor

import (
	"math"
	"slices"
)

// RNG is a small, fast, deterministic pseudo-random generator: splitmix64,
// the Mix64 finalizer over a Weyl counter that steps by the golden-ratio
// constant, so its whole state is one uint64. Every stochastic component in
// the repository draws from an explicitly seeded RNG so experiments are
// reproducible run to run.
type RNG struct {
	state uint64
}

// golden is the Weyl increment γ: the state after draw k of a stream seeded
// s is s + k·γ, so any draw can be computed without the ones before it.
const golden = 0x9e3779b97f4a7c15

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return Mix64(r.state)
}

// Skip advances the generator past n draws without making them: after
// Skip(n) it draws what it would have drawn after n calls of Uint64.
func (r *RNG) Skip(n uint64) {
	r.state += n * golden
}

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash. Every seeded hash in the repository (data streams, ring placement,
// fault schedules) runs through it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// float32 returns a uniform value in [0,1).
func (r *RNG) float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Intn returns a uniform value in [0,n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// normFloat64 returns a standard normal variate (Box-Muller; one value per
// call, the pair's second half is discarded to keep state minimal).
func (r *RNG) normFloat64() float64 {
	return boxMuller(r.nonzeroFloat64(), r.Float64())
}

// nonzeroFloat64 is Float64 drawn again while it is zero: normFloat64's u1,
// in [2⁻⁵³, 1).
func (r *RNG) nonzeroFloat64() float64 {
	for {
		if u := r.Float64(); u != 0 {
			return u
		}
	}
}

// boxMuller is normFloat64's transform of one uniform pair; boxMullerAsm
// evaluates it four pairs at a time with the same bits.
func boxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// perm returns a pseudo-random permutation of [0,n).
func (r *RNG) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// fillChunk bounds one uniformAsm call, so a large table is filled in
// calls of about 30 µs each rather than one that cannot be preempted.
const fillChunk = 1 << 16

// FillUniform fills x with uniform values in [-scale, scale]:
// x[i] = (2·float32() − 1)·scale in draw order, bit for bit. With AVX-512 the
// values are computed eight at a time from their counters (uniformAsm) and
// the last len(x) mod 8 elements run the loop below.
func (r *RNG) FillUniform(x []float32, scale float32) {
	if useAVX512 {
		for len(x) >= 8 {
			n := min(len(x)&^7, fillChunk)
			uniformAsm(r.state, x[:n], scale)
			r.Skip(uint64(n))
			x = x[n:]
		}
	}
	for i := range x {
		x[i] = (2*r.float32() - 1) * scale
	}
}

// normBlock is how many uniform pairs FillNormal draws, on the stack,
// before the vector kernel transforms them.
const normBlock = 256

// FillNormal fills x with normal values of the given standard deviation:
// x[i] = float32(normFloat64())·std in draw order, bit for bit. With AVX2 the
// transform runs four elements at a time (boxMullerAsm) and the last
// len(x) mod 4 elements run the loop below.
func (r *RNG) FillNormal(x []float32, std float32) {
	if useAVX2 {
		var u1, u2 [normBlock]float64
		for len(x) >= 4 {
			n := min(len(x)&^3, normBlock)
			r.uniformPairs(&u1, &u2, n)
			boxMullerAsm(u1[:n], u2[:n], x[:n], std)
			x = x[n:]
		}
	}
	for i := range x {
		x[i] = float32(r.normFloat64()) * std
	}
}

// uniformPairs draws normFloat64's first n uniform pairs, u1[i] =
// nonzeroFloat64() and u2[i] = Float64(). With AVX-512 the lanes compute all
// n from their counters (uniformPairsAsm); a zero u1 among them would have
// been redrawn, shifting every later counter, so that block is drawn again
// by the loop from the saved state.
func (r *RNG) uniformPairs(u1, u2 *[normBlock]float64, n int) {
	if useAVX512 {
		uniformPairsAsm(r.state, u1, u2, n)
		if !slices.Contains(u1[:n], 0) {
			r.Skip(uint64(2 * n))
			return
		}
	}
	for i := range n {
		u1[i] = r.nonzeroFloat64()
		u2[i] = r.Float64()
	}
}

// XavierInit fills m with the Glorot/Xavier uniform initialization used by
// the DLRM reference implementation for MLP weights.
func XavierInit(m *Matrix, r *RNG) {
	scale := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	r.FillUniform(m.Data, scale)
}
