//go:build amd64 && !purego

package tensor

import (
	"math"
	"strings"
	"testing"
)

// The assembly tiers this host runs join scaledKernels, each called
// directly: the row-broadcast kernel on AVX2 and, where the CPU has it, on
// the 512-bit tier (through gemmRows, which hands the last n mod 16 columns
// to AVX2 as every caller does), and AVX2's short-k NT form.
func init() {
	if !useAVX2 {
		return
	}
	for _, wide := range []bool{false, true} {
		if wide && len(missingAVX512()) > 0 {
			continue
		}
		tier := map[bool]string{false: "avx2", true: "avx512"}[wide]
		scaledKernels = append(scaledKernels,
			scaledKernel{tier + " NN", 0, func(m, k, n int, a, b, c []float32, alpha float32, add bool) {
				gemmRows(wide, m, k, n, a, k, 1, b, c, alpha, add)
			}, axpyAsm},
			scaledKernel{tier + " TN", 0, func(m, k, n int, a, b, c []float32, alpha float32, add bool) {
				gemmRows(wide, m, k, n, a, 1, m, b, c, alpha, add)
			}, axpyAsm})
	}
	scaledKernels = append(scaledKernels, scaledKernel{"avx2 short-k NT", ntDotMinK - 1,
		func(m, k, n int, a, b, c []float32, alpha float32, add bool) {
			_, _, _ = a[m*k-1], b[n*k-1], c[m*n-1]
			gemmRowsAVX2(m, k, n, &a[0], k, 1, &b[0], 0, &c[0], n, alpha, add, true)
		}, axpyAsm})
}

// TestWideKernelsMatchAVX2BitForBit holds the 512-bit tier to the AVX2 one:
// for every invarianceShapes() product in every layout, store and add mode,
// on unaligned operands, the two kernels write the same bits. NT products
// with k < ntDotMinK take the same AVX2 kernel on both tiers and are skipped.
func TestWideKernelsMatchAVX2BitForBit(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the assembly never runs on this host")
	}
	if missing := missingAVX512(); len(missing) > 0 {
		t.Skipf("no 512-bit tier on this host: missing %s", strings.Join(missing, ", "))
	}
	layouts := []struct {
		name string
		run  func(wide bool, m, k, n int, a, b, c []float32, add bool)
	}{
		{"NN", func(wide bool, m, k, n int, a, b, c []float32, add bool) {
			gemmRows(wide, m, k, n, a, k, 1, b, c, 1, add)
		}},
		{"TN", func(wide bool, m, k, n int, a, b, c []float32, add bool) {
			gemmRows(wide, m, k, n, a, 1, m, b, c, 1, add)
		}},
		{"NT", gemmDot},
	}
	rng := NewRNG(83)
	for _, s := range invarianceShapes() {
		m, k, n := s[0], s[1], s[2]
		if m == 0 || k == 0 || n == 0 {
			continue
		}
		a, b := unaligned(rng, m*k, 1), unaligned(rng, k*n, 3)
		c0 := unaligned(rng, m*n, 1)
		for _, l := range layouts {
			if l.name == "NT" && k < ntDotMinK {
				continue
			}
			for _, add := range []bool{false, true} {
				want := append(make([]float32, 3), c0...)[3:]
				got := append(make([]float32, 1), c0...)[1:]
				l.run(false, m, k, n, a, b, want, add)
				l.run(true, m, k, n, a, b, got, add)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s %dx%dx%d add=%v: C[%d,%d] is %v on the wide tier, %v on AVX2",
							l.name, m, k, n, add, i/n, i%n, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSplitmixLanesMatchScalarDraws calls the two splitmix64 kernels
// directly and wants RNG's scalar bits: uniformAsm's (2·Float32() − 1)·scale
// over 8 to 512 elements, and the fused normalAsm's normal values over 16 to
// 512, which hold its lanes to the counters the loop draws at, 2i+1 and 2i+2
// for element i, in both groups and across iterations.
func TestSplitmixLanesMatchScalarDraws(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the assembly never runs on this host")
	}
	if missing := missingAVX512(); len(missing) > 0 {
		t.Skipf("no 512-bit tier on this host: missing %s", strings.Join(missing, ", "))
	}
	for _, seed := range []uint64{1, 0xfeedface, ^uint64(0)} {
		for n := 8; n <= 512; n += 8 {
			got, want := make([]float32, n), make([]float32, n)
			r := RNG{state: seed}
			uniformAsm(seed, got, -0.3)
			uniformLoop(&r, want, -0.3)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("state %#x n=%d: lane %d gives %#08x, Float32 %#08x", seed, n, i%8, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		for n := 16; n <= 512; n += 16 {
			got, want := make([]float32, n), make([]float32, n)
			r := RNG{state: seed}
			if normalAsm(seed, &normalLanes, got, -0.3) {
				t.Fatalf("state %#x n=%d: the kernel reports a zero u1", seed, n)
			}
			normalLoop(&r, want, -0.3)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("state %#x n=%d: group %d lane %d gives %#08x, the loop %#08x", seed, n, i/8%2, i%8, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestWideFillNormalMatchesAVX2BitForBit holds FillNormal's 512-bit tier to
// its AVX2 tier: at every length up to 70, around 256 and at one past a
// million (many fillChunk calls and a tail), for four standard deviations
// (1e-40 makes every product subnormal) and three seeds, the two write the
// same bits and leave the RNG in the same state.
func TestWideFillNormalMatchesAVX2BitForBit(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the assembly never runs on this host")
	}
	if missing := missingAVX512(); len(missing) > 0 {
		t.Skipf("no 512-bit tier on this host: missing %s", strings.Join(missing, ", "))
	}
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257, 1_000_003)
	for _, seed := range []uint64{1, 42, 0xfeedface} {
		for _, std := range []float32{1, 0.02, -3.5, 1e-40} {
			for _, n := range lengths {
				wide, narrow := *NewRNG(seed), *NewRNG(seed)
				got, want := make([]float32, n), make([]float32, n)
				wide.fillNormal(true, got, std)
				narrow.fillNormal(false, want, std)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("seed %d n=%d std=%v: x[%d] is %#08x on the wide tier, %#08x on AVX2", seed, n, std, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
				if wide.state != narrow.state {
					t.Fatalf("seed %d n=%d: the wide tier left the RNG at %#x, AVX2 at %#x", seed, n, wide.state, narrow.state)
				}
			}
		}
	}
}

// TestWideLaneKernelsMatchAVX2BitForBit holds the 512-bit lane kernels to
// the AVX2 ones: pair dots and pair gradients over widths on both sides of
// the 8-chain step and the 16-column tile, with special operands or (at even
// feature counts) underflowing ones, write the same bits on both tiers.
func TestWideLaneKernelsMatchAVX2BitForBit(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the assembly never runs on this host")
	}
	if missing := missingAVX512(); len(missing) > 0 {
		t.Skipf("no 512-bit tier on this host: missing %s", strings.Join(missing, ", "))
	}
	rng := NewRNG(84)
	for _, d := range []int{1, 7, 8, 9, 12, 15, 16, 17, 23, 31, 32, 33, 47, 48, 64, 70} {
		for _, f := range []int{1, 2, 3, 4, 5, 6, 9, 27} {
			z := laneOperands(rng, LaneBlock(f, d), true)
			if f%2 == 0 {
				z = underflowOperands(f, d)
			}
			s := laneOperands(rng, f*(f-1)/2*Lanes, true)
			dz := [2][]float32{make([]float32, LaneBlock(f, d)), make([]float32, LaneBlock(f, d))}
			out := [2][]float32{make([]float32, f*(f-1)/2*Lanes), make([]float32, f*(f-1)/2*Lanes)}
			for i, wide := range []bool{false, true} {
				if f > 1 {
					pairDots(wide, f, d, z, out[i])
				}
				pairGrad(wide, f, d, s, z, dz[i])
			}
			for k, res := range [][2][]float32{out, dz} {
				for i, v := range res[1] {
					if math.Float32bits(v) != math.Float32bits(res[0][i]) {
						t.Fatalf("d %d f %d, %s element %d: %v on the wide tier, %v on AVX2", d, f, []string{"pair dots", "pair gradient"}[k], i, v, res[0][i])
					}
				}
			}
		}
	}
}
