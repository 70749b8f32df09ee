package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator: splitmix64,
// the Mix64 finalizer over a Weyl counter that steps by the golden-ratio
// constant, so its whole state is one uint64. Every stochastic component in
// the repository draws from an explicitly seeded RNG so experiments are
// reproducible run to run.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
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

// Float32 returns a uniform value in [0,1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Intn returns a uniform value in [0,n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller; one value per
// call, the pair's second half is discarded to keep state minimal).
func (r *RNG) NormFloat64() float64 {
	return boxMuller(r.nonzeroFloat64(), r.Float64())
}

// nonzeroFloat64 is Float64 drawn again while it is zero: NormFloat64's u1,
// in [2⁻⁵³, 1).
func (r *RNG) nonzeroFloat64() float64 {
	for {
		if u := r.Float64(); u != 0 {
			return u
		}
	}
}

// boxMuller is NormFloat64's transform of one uniform pair; boxMullerAsm
// evaluates it four pairs at a time with the same bits.
func boxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
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

// FillUniform fills x with uniform values in [-scale, scale].
func (r *RNG) FillUniform(x []float32, scale float32) {
	for i := range x {
		x[i] = (2*r.Float32() - 1) * scale
	}
}

// normBlock is how many uniform pairs FillNormal draws, on the stack,
// before the vector kernel transforms them.
const normBlock = 256

// FillNormal fills x with normal values of the given standard deviation:
// x[i] = float32(NormFloat64())·std in draw order, bit for bit. With AVX2 the
// transform runs four elements at a time (boxMullerAsm) and the last
// len(x) mod 4 elements run the loop below.
func (r *RNG) FillNormal(x []float32, std float32) {
	if useAVX2 {
		var u1, u2 [normBlock]float64
		for len(x) >= 4 {
			n := min(len(x)&^3, normBlock)
			for i := range n {
				u1[i] = r.nonzeroFloat64()
				u2[i] = r.Float64()
			}
			boxMullerAsm(u1[:n], u2[:n], x[:n], std)
			x = x[n:]
		}
	}
	for i := range x {
		x[i] = float32(r.NormFloat64()) * std
	}
}

// XavierInit fills m with the Glorot/Xavier uniform initialization used by
// the DLRM reference implementation for MLP weights.
func XavierInit(m *Matrix, r *RNG) {
	scale := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	r.FillUniform(m.Data, scale)
}
