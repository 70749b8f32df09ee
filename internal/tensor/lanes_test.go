package tensor

import (
	"fmt"
	"math"
	"testing"
)

// laneSpecials are the operands a lane kernel must carry through with the
// per-sample products' bits: signed zeros, a subnormal, infinities and NaN.
var laneSpecials = []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}

// laneOperands fills n floats, one in seven (when specials is set) a special
// value.
func laneOperands(rng *RNG, n int, specials bool) []float32 {
	x := make([]float32, n)
	rng.FillNormal(x, 1)
	for i := range x {
		if specials && rng.Intn(7) == 0 {
			x[i] = laneSpecials[rng.Intn(len(laneSpecials))]
		}
	}
	return x
}

// sameBits is bit equality, except that any two NaNs match: NaN sign and
// payload are outside the kernels' rule (DESIGN.md §12).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestLanesRoundTrip: ToLanes and FromLanes over one and three blocks, every
// row count and widths on both sides of the 8-column tile, move every bit —
// NaN payloads included — zero the lanes of missing rows and write nothing
// past n columns.
func TestLanesRoundTrip(t *testing.T) {
	rng := NewRNG(31)
	for _, blocks := range []int{1, 3} {
		for _, n := range []int{0, 1, 7, 8, 9, 17, 64, 70} {
			for rows := 1; rows <= Lanes; rows++ {
				ld := n + 3
				src := make([][]float32, blocks)
				for f := range src {
					src[f] = laneOperands(rng, rows*ld, true)
				}
				dst := laneOperands(rng, LaneBlock(blocks, n), false)
				ToLanes(rows, n, src, ld, dst)
				back := make([][]float32, blocks)
				for f := range back {
					for c := 0; c < n; c++ {
						for r := 0; r < Lanes; r++ {
							want := float32(0)
							if r < rows {
								want = src[f][r*ld+c]
							}
							if got := dst[f*laneStride(n)+c*Lanes+r]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("ToLanes blocks %d n %d rows %d: block %d lane %d of column %d = %v want %v", blocks, n, rows, f, r, c, got, want)
							}
						}
					}
					back[f] = make([]float32, rows*ld)
					for i := range back[f] {
						back[f][i] = -1
					}
				}
				FromLanes(rows, n, dst, back, ld)
				for f := range back {
					for r := 0; r < rows; r++ {
						for c := 0; c < ld; c++ {
							want := float32(-1)
							if c < n {
								want = src[f][r*ld+c]
							}
							if got := back[f][r*ld+c]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("FromLanes blocks %d n %d rows %d: block %d row %d column %d = %v want %v", blocks, n, rows, f, r, c, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// underflowOperands fills a lane block of f features of d vectors with
// subnormals whose sign alternates by feature: every product of two of them
// underflows, so a fused chain from +0 over features of opposite signs sums
// to −0, and only the +0 the dot kernel's masked step adds to the chains past
// d mod 8 makes the pair +0 — the one case in which that step shows.
func underflowOperands(f, d int) []float32 {
	z := make([]float32, LaneBlock(f, d))
	for i := 0; i < f; i++ {
		for c := 0; c < d*Lanes; c++ {
			v := float32(math.SmallestNonzeroFloat32) * float32(1+c%3)
			if i%2 == 1 {
				v = -v
			}
			z[i*laneStride(d)+c] = v
		}
	}
	return z
}

// laneSample returns lane l of the lane block z of f features of d vectors
// as one sample's row-major f×d matrix.
func laneSample(z []float32, f, d, l int) []float32 {
	m := make([]float32, f*d)
	for i := range m {
		m[i] = z[i/d*laneStride(d)+i%d*Lanes+l]
	}
	return m
}

// TestPairKernelsMatchPerSampleProducts: every lane of PairDots and PairGrad
// carries the bits of that sample's own product — the NT entry point (and
// the portable twin the portable NT kernel's) for the pair dots, the NN
// entry point (portable: the row kernel) for S·Z with S built from the pair
// vectors and a +0 diagonal — over widths on both sides of the dot kernels'
// 8-lane chains and k = 8 switch, feature counts from 1 to 27, and normal,
// special and underflowing operands.
func TestPairKernelsMatchPerSampleProducts(t *testing.T) {
	rng := NewRNG(32)
	for _, mode := range []string{"normal", "specials", "underflow"} {
		for _, d := range []int{1, 2, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 33, 64, 70} {
			for _, f := range []int{1, 2, 3, 5, 9, 27} {
				testPairKernels(t, rng, f, d, mode)
			}
		}
	}
}

func testPairKernels(t *testing.T, rng *RNG, f, d int, mode string) {
	p := f * (f - 1) / 2
	z := laneOperands(rng, LaneBlock(f, d), mode == "specials")
	s := laneOperands(rng, p*Lanes, mode == "specials")
	if mode == "underflow" {
		z = underflowOperands(f, d)
	}
	for _, fam := range []struct {
		name   string
		dots   func(f, d int, z, out []float32)
		grad   func(f, d int, s, z, dz []float32)
		nt, nn func(m, k, n int, a, b, c []float32, add bool)
	}{
		{"dispatch", PairDots, PairGrad, gemmTransBBlocked, gemmBlocked},
		{"portable", pairDotsGo, pairGradGo, gemmDotGo, func(m, k, n int, a, b, c []float32, add bool) {
			gemmRowsGo(m, k, n, a, k, 1, b, c, 1, add)
		}},
	} {
		name := fmt.Sprintf("%s d %d f %d %s", fam.name, d, f, mode)
		out := laneOperands(rng, p*Lanes, false)
		dz := laneOperands(rng, LaneBlock(f, d), false)
		fam.dots(f, d, z, out)
		fam.grad(f, d, s, z, dz)
		for l := 0; l < Lanes; l++ {
			zl := laneSample(z, f, d, l)
			gram := make([]float32, f*f)
			fam.nt(f, d, f, zl, zl, gram, false)
			sym := make([]float32, f*f)
			for i := 1; i < f; i++ {
				for j := 0; j < i; j++ {
					g := s[(i*(i-1)/2+j)*Lanes+l]
					sym[i*f+j], sym[j*f+i] = g, g
					if got, want := out[(i*(i-1)/2+j)*Lanes+l], gram[i*f+j]; !sameBits(got, want) {
						t.Fatalf("%s lane %d: pair (%d, %d) = %v (%#x) want %v (%#x)", name, l, i, j, got, math.Float32bits(got), want, math.Float32bits(want))
					}
				}
			}
			want := make([]float32, f*d)
			fam.nn(f, f, d, sym, zl, want, false)
			for i, w := range want {
				if got := dz[i/d*laneStride(d)+i%d*Lanes+l]; !sameBits(got, w) {
					t.Fatalf("%s lane %d: dz[%d][%d] = %v (%#x) want %v (%#x)", name, l, i/d, i%d, got, math.Float32bits(got), w, math.Float32bits(w))
				}
			}
		}
	}
}
