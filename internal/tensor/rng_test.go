package tensor

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(4)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.normFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestFillUniformBounds(t *testing.T) {
	r := NewRNG(6)
	x := make([]float32, 500)
	r.FillUniform(x, 0.25)
	for _, v := range x {
		if v < -0.25 || v > 0.25 {
			t.Fatalf("FillUniform out of bounds: %v", v)
		}
	}
}

func TestXavierInitScale(t *testing.T) {
	r := NewRNG(7)
	m := New(64, 64)
	XavierInit(m, r)
	bound := float32(math.Sqrt(6.0 / 128.0))
	for _, v := range m.Data {
		if v < -bound || v > bound {
			t.Fatalf("XavierInit value %v outside ±%v", v, bound)
		}
	}
	// Should not be all zero.
	var nonzero int
	for _, v := range m.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatalf("XavierInit left %d of %d entries zero", len(m.Data)-nonzero, len(m.Data))
	}
}

// uniformLoop is FillUniform's oracle: the per-element loop.
func uniformLoop(r *RNG, x []float32, scale float32) {
	for i := range x {
		x[i] = (2*r.float32() - 1) * scale
	}
}

// checkFillUniform fills n elements from two copies of r, through
// FillUniform into a slice starting offset floats into its buffer and
// through the loop, and wants the same bits and the same RNG state after.
func checkFillUniform(t *testing.T, r RNG, n, offset int, scale float32) {
	t.Helper()
	a, b := r, r
	got, want := make([]float32, offset+n)[offset:], make([]float32, n)
	a.FillUniform(got, scale)
	uniformLoop(&b, want, scale)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("state %#x n=%d offset=%d scale=%v: x[%d] = %v (%#08x), loop gives %v (%#08x)",
			r.state, n, offset, scale, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
	if a.state != b.state {
		t.Fatalf("state %#x n=%d: FillUniform left the RNG at %#x, the loop at %#x", r.state, n, a.state, b.state)
	}
}

// TestFillUniformMatchesPerElementLoop: FillUniform is (2·float32() − 1)·scale
// element by element, bit for bit and in draw order, at every tail class of
// the eight-lane kernel, around 256, across fillChunk and from unaligned
// starts; scale 1e-40 makes every product subnormal, 0 every one zero.
func TestFillUniformMatchesPerElementLoop(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257)
	for _, seed := range []uint64{1, 42, 0xfeedface, 1 << 63} {
		for _, scale := range []float32{1, 0.05, -0.3, 0, 1e-40} {
			for _, n := range lengths {
				checkFillUniform(t, *NewRNG(seed), n, n%3, scale)
			}
			checkFillUniform(t, *NewRNG(seed), 1_000_000, 1, scale)
		}
	}
}

// TestSkipJumpsPastDraws: Skip(n) leaves the generator where n draws do,
// including a count that wraps the state.
func TestSkipJumpsPastDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 7, 1000} {
		a, b := NewRNG(17), NewRNG(17)
		for range n {
			a.Uint64()
		}
		b.Skip(n)
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Skip(%d) draws differently from %d draws", n, n)
		}
	}
	r := NewRNG(3)
	r.Skip(1 << 63)
	r.Skip(1 << 63)
	if want := NewRNG(3); r.state != want.state {
		t.Fatalf("Skip(2⁶⁴) moved the state to %#x, want %#x", r.state, want.state)
	}
}

// FuzzFillUniform holds FillUniform to the per-element loop over the seed,
// the length (up to 4 096, every tail class) and the scale's bits, NaN and
// infinities included.
func FuzzFillUniform(f *testing.F) {
	f.Add(uint64(1), uint16(0), math.Float32bits(1))
	f.Add(uint64(42), uint16(257), math.Float32bits(-0.3))
	f.Add(uint64(0), uint16(8), uint32(1)) // smallest subnormal scale
	f.Add(uint64(7), uint16(71), math.Float32bits(float32(math.Inf(1))))
	f.Add(uint64(9), uint16(16), uint32(0x7fc00001)) // NaN
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, scaleBits uint32) {
		r := RNG{state: seed}
		a, b := r, r
		got, want := make([]float32, n%4097), make([]float32, n%4097)
		scale := math.Float32frombits(scaleBits)
		a.FillUniform(got, scale)
		uniformLoop(&b, want, scale)
		for i := range want {
			g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
			if g != w && !(got[i] != got[i] && want[i] != want[i]) {
				t.Fatalf("state %#x n=%d scale %#08x: x[%d] = %#08x, loop gives %#08x", seed, len(want), scaleBits, i, g, w)
			}
		}
		if a.state != b.state {
			t.Fatalf("state %#x n=%d: FillUniform left %#x, the loop %#x", seed, len(want), a.state, b.state)
		}
	})
}
