package tensor

import (
	"math"
	"testing"
)

// normalLoop is FillNormal's oracle: the per-element loop.
func normalLoop(r *RNG, x []float32, std float32) {
	for i := range x {
		x[i] = float32(r.normFloat64()) * std
	}
}

// firstDiff returns the first index where got and want differ in bits, or -1.
func firstDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkFillNormal fills n elements from two copies of r, through FillNormal
// and through the loop, and wants the same bits and the same RNG state after.
func checkFillNormal(t *testing.T, r RNG, n int, std float32) {
	t.Helper()
	a, b := r, r
	got, want := make([]float32, n), make([]float32, n)
	a.FillNormal(got, std)
	normalLoop(&b, want, std)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("state %#x n=%d std=%v: x[%d] = %v (%#08x), loop gives %v (%#08x)",
			r.state, n, std, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
	if a.state != b.state {
		t.Fatalf("state %#x n=%d: FillNormal left the RNG at %#x, the loop at %#x", r.state, n, a.state, b.state)
	}
}

// TestFillNormalMatchesPerElementLoop: FillNormal is float32(normFloat64())·std
// element by element, bit for bit and in draw order, at every tail class,
// around the 256-pair block and at a length of many blocks.
func TestFillNormalMatchesPerElementLoop(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257)
	for _, seed := range []uint64{1, 42, 0xfeedface} {
		for _, std := range []float32{1, 0.01, 0.125, -3.5} {
			for _, n := range lengths {
				checkFillNormal(t, *NewRNG(seed), n, std)
			}
		}
		checkFillNormal(t, *NewRNG(seed), 1_000_000, 0.02)
	}
}

// invertMix64 returns the z with Mix64(z) == h: each xorshift is undone by
// iterating it, each multiplication by the odd constant's inverse mod 2⁶⁴.
func invertMix64(h uint64) uint64 {
	h = unxorshift(h, 31) * inverseOdd(0x94d049bb133111eb)
	h = unxorshift(h, 27) * inverseOdd(0xbf58476d1ce4e5b9)
	return unxorshift(h, 30)
}

// unxorshift inverts x ^= x >> k: each pass fixes k more high bits.
func unxorshift(y uint64, k uint) uint64 {
	x := y
	for range 64 / k {
		x = y ^ x>>k
	}
	return x
}

// inverseOdd is c⁻¹ mod 2⁶⁴ by Newton's iteration, which doubles the
// correct low bits each step from the three an odd c starts with.
func inverseOdd(c uint64) uint64 {
	x := c
	for range 5 {
		x *= 2 - c*x
	}
	return x
}

func TestInvertMix64(t *testing.T) {
	r := NewRNG(9)
	for range 1000 {
		z := r.Uint64()
		if got := invertMix64(Mix64(z)); got != z {
			t.Fatalf("invertMix64(Mix64(%#x)) = %#x", z, got)
		}
	}
}

// TestFillNormalRedrawsZeroU1: an RNG built so that the u1 of element pos
// draws 0 (a Uint64 below 2¹¹) takes normFloat64's retry in FillNormal too,
// mid-block, on either side of the block boundary and in the scalar tail:
// same bits as the loop, and exactly one extra draw.
func TestFillNormalRedrawsZeroU1(t *testing.T) {
	for _, c := range []struct{ n, pos int }{{600, 100}, {600, 255}, {600, 256}, {258, 257}} {
		for _, low := range []uint64{0x5a5, 1, 0x7ff} {
			// Element pos's u1 is draw 2·pos, made from state s0 + (2·pos+1)·golden.
			s0 := invertMix64(low) - uint64(2*c.pos+1)*golden
			r := RNG{state: s0}
			probe := r
			for range 2 * c.pos {
				probe.Uint64()
			}
			if probe.Float64() != 0 {
				t.Fatalf("state %#x: element %d's u1 is not zero", s0, c.pos)
			}
			checkFillNormal(t, r, c.n, 0.5)
			r.FillNormal(make([]float32, c.n), 0.5)
			if want := s0 + uint64(2*c.n+1)*golden; r.state != want {
				t.Fatalf("n=%d, zero at %d: %d draws, want %d", c.n, c.pos, (r.state-s0)/golden, 2*c.n+1)
			}
		}
	}
}

// inUnit maps v into the kernel's domain [lo, 1): itself if it is there,
// otherwise the RNG.Float64 value of its top 53 bits, raised to lo.
func inUnit(v, lo float64) float64 {
	if v >= lo && v < 1 {
		return v
	}
	return max(float64(math.Float64bits(v)>>11)/(1<<53), lo)
}

// The float32 rounding hides almost every error the kernel could make in
// float64: a result an ulp off the scalar one rounds to the same float32 but
// for about one input in 2²⁹. sharpenU1 and sharpenU2 move one input of a
// pair to where the scalar result lies within an ulp or so of a float32
// rounding midpoint, so there an ulp of error flips the float32: they solve
// for the midpoint in closed form, then walk ±64 ulps to the input whose
// scalar result is nearest it (the walk absorbs the solve's own error).

// midpointNear returns the float32 rounding boundary next to r.
func midpointNear(r float64) float64 {
	f := float32(r)
	g := math.Nextafter32(f, float32(math.Inf(1)))
	if float64(f) > r {
		g = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return (float64(f) + float64(g)) / 2
}

// nearestTo walks v by up to 64 ulps within [lo, 1) and returns the value
// whose result(v) is closest to m.
func nearestTo(v, lo, m float64, result func(float64) float64) float64 {
	best, bestErr := v, math.Abs(result(v)-m)
	for _, dir := range []float64{0, 1} {
		w := v
		for range 64 {
			if w = math.Nextafter(w, dir); w < lo || w >= 1 {
				break
			}
			if e := math.Abs(result(w) - m); e < bestErr {
				best, bestErr = w, e
			}
		}
	}
	return best
}

// sharpenU1 keeps u2 and solves √(−2·ln u1)·c = m for u1.
func sharpenU1(u1, u2 float64) float64 {
	c := math.Cos(2 * math.Pi * u2)
	m := midpointNear(boxMuller(u1, u2))
	radius := m / c
	if c == 0 || radius <= 0 || math.IsInf(radius, 0) {
		return u1
	}
	v := min(max(math.Exp(-radius*radius/2), 0x1p-53), math.Nextafter(1, 0))
	return nearestTo(v, 0x1p-53, m, func(w float64) float64 { return boxMuller(w, u2) })
}

// sharpenU2 keeps u1 and solves radius·cos(2π·u2) = m for u2 on u2's side of ½.
func sharpenU2(u1, u2 float64) float64 {
	radius := math.Sqrt(-2 * math.Log(u1))
	m := midpointNear(boxMuller(u1, u2))
	if math.Abs(m) > radius {
		return u2
	}
	v := math.Acos(m/radius) / (2 * math.Pi)
	if u2 > 0.5 {
		v = 1 - v
	}
	v = min(v, math.Nextafter(1, 0))
	return nearestTo(v, 0, m, func(w float64) float64 { return boxMuller(u1, w) })
}

// checkKernel runs the kernel over four lanes and wants the scalar bits.
func checkKernel(t *testing.T, u1, u2 []float64, std float32) {
	t.Helper()
	got, want := make([]float32, len(u1)), make([]float32, len(u1))
	for i := range u1 {
		want[i] = float32(boxMuller(u1[i], u2[i])) * std
	}
	boxMullerAsm(u1, u2, got, std)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("u1=%v u2=%v std=%v: lane %d gives %v (%#08x), scalar %v (%#08x)",
			u1[i], u2[i], std, i%4, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// TestBoxMullerNearFloat32Midpoints holds the kernel to the scalar bits on
// pairs drawn as FillNormal draws them, each sharpened in u1 and in u2.
func TestBoxMullerNearFloat32Midpoints(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the kernel never runs on this host")
	}
	const pairs = 1 << 15
	r := NewRNG(11)
	u1, u2 := make([]float64, 0, 3*pairs), make([]float64, 0, 3*pairs)
	for range pairs {
		a, b := r.nonzeroFloat64(), r.Float64()
		u1 = append(u1, sharpenU1(a, b), a, a)
		u2 = append(u2, b, sharpenU2(a, b), b)
	}
	checkKernel(t, u1, u2, 1)
}

// FuzzBoxMuller holds the four-lane kernel to the scalar expression over
// u1 ∈ [2⁻⁵³, 1) and u2 ∈ [0, 1): lane 0 takes the fuzzed pair, lanes 1-3
// the pair sharpened in u1, in u2 and in both. Seeds: the smallest and the
// largest u1;
// frexp's f1 on either side of √2/2, where archLog's compare (f1 ≤ √2/2,
// not <) decides; every octant edge j/8 ± 1 ulp of u2, where cos changes
// polynomial and sign; u2 = 0.
func FuzzBoxMuller(f *testing.F) {
	const hsqrt2 = 0.7071067811865476 // float64(math.Sqrt2 / 2), archLog's HSqrt2
	f.Add(0x1p-53, 0.0, float32(1))
	f.Add(0x1p-53, 0.5, float32(0.01))
	f.Add(1-0x1p-53, 0.3, float32(1))
	for _, u1 := range []float64{hsqrt2, hsqrt2 / 8} {
		f.Add(math.Nextafter(u1, 0), 0.3, float32(1))
		f.Add(u1, 0.3, float32(1))
		f.Add(math.Nextafter(u1, 1), 0.3, float32(1))
	}
	for j := range 9 {
		edge := float64(j) / 8
		f.Add(0.25, math.Nextafter(edge, 0), float32(1))
		f.Add(0.25, edge, float32(1))
		f.Add(0.25, math.Nextafter(edge, 1), float32(1))
	}
	f.Fuzz(func(t *testing.T, u1, u2 float64, std float32) {
		if !useAVX2 {
			t.Skip("no AVX2: the kernel never runs on this host")
		}
		u1, u2 = inUnit(u1, 0x1p-53), inUnit(u2, 0)
		s1, s2 := sharpenU1(u1, u2), sharpenU2(u1, u2)
		checkKernel(t, []float64{u1, s1, u1, s1}, []float64{u2, u2, s2, sharpenU2(s1, u2)}, std)
	})
}

// BenchmarkFillNormal reports FillNormal's cost per element, filling 65 536
// elements per call.
func BenchmarkFillNormal(b *testing.B) {
	x := make([]float32, 64*64*16)
	r := NewRNG(1)
	b.ResetTimer()
	for range b.N {
		r.FillNormal(x, 0.02)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elt")
}

// BenchmarkFillUniform reports FillUniform's cost per element at 1 M
// elements and at 36.7 M, the train_host workload's eight host tables
// (147 MB) in one slice.
func BenchmarkFillUniform(b *testing.B) {
	for _, n := range []struct {
		name string
		elts int
	}{{"1M", 1 << 20}, {"36.7M", 36_700_000}} {
		b.Run(n.name, func(b *testing.B) {
			x := make([]float32, n.elts)
			r := NewRNG(1)
			b.ResetTimer()
			for range b.N {
				r.FillUniform(x, 0.01)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elt")
		})
	}
}
