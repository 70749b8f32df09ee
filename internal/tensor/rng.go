package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style splitmix64 stream). Every stochastic component in the
// repository draws from an explicitly seeded RNG so experiments are
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
		//elrec:invariant API contract: n must be positive
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller; one value per
// call, the pair's second half is discarded to keep state minimal).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
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

// FillNormal fills x with normal values of the given standard deviation.
func (r *RNG) FillNormal(x []float32, std float32) {
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
