//go:build linux && amd64 && !purego

package tensor

import (
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats maps room for max floats followed by a PROT_NONE page and
// returns a function that hands out n-float slices ending flush against
// that page: the first byte a kernel touches past its operand faults.
func guardedFloats(t *testing.T, max int) func(n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (max*4 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	all := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), size/4)
	for i := range all {
		all[i] = float32(i%13) * 0.125
	}
	return func(n int) []float32 { return all[len(all)-n:] }
}

// TestKernelsStayInsideTheirOperands runs every tail class of m, k and n
// (m mod 8 and n mod 32 included, the 512-bit tier's tiles) with each
// operand's last element on the last mapped float before an unmapped page:
// a vector load, masked load or store that strays past m·k, k·n or m·n
// elements kills the test binary with SIGSEGV. The Box–Muller kernel's u1,
// u2 and out end against a page too, at every length it takes up to 68, and
// so do the splitmix64 kernels' outputs: uniformAsm's x at every length it
// takes up to 72, and the fused normalAsm's at every length up to 80. The
// lane kernels' operands do too, for widths 1 to 70 at 1, 2, 3 and 27
// features: ToLanes' sources and FromLanes' destinations (eight rows of d
// floats a feature, laneExtent(f, d) floats in all), z and dz, and the
// f(f−1)/2 pair vectors PairDots writes and PairGrad reads.
func TestKernelsStayInsideTheirOperands(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the assembly never runs on this host")
	}
	const top = 17
	aAt, bAt, cAt := guardedFloats(t, top*top), guardedFloats(t, top*wideTop), guardedFloats(t, top*wideTop)
	for _, s := range tailShapes() {
		m, k, n := s[0], s[1], s[2]
		a, b, c := aAt(m*k), bAt(k*n), cAt(m*n)
		for _, kd := range gemmKinds {
			kd.run(m, k, n, a, b, c, false)
			kd.run(m, k, n, a, b, c, true)
		}
		for _, sk := range scaledKernels {
			if sk.maxK == 0 || k <= sk.maxK {
				sk.run(m, k, n, a, b, c, -0.05, true)
			}
		}
	}
	for n := 1; n <= 70; n++ {
		x, y := aAt(n), bAt(n)
		axpy(0.5, x, y)
		AddTo(y, x)
	}
	for rows := 1; rows <= 5; rows++ {
		for cols := 1; cols <= 40; cols++ {
			y, dy, v := aAt(rows*cols), bAt(rows*cols), cAt(cols)
			AddBias(FromSlice(rows, cols, y), v, cols%2 == 0)
			ReLUGrad(FromSlice(rows, cols, dy), FromSlice(rows, cols, y), v)
		}
	}
	for n := 4; n <= 68; n += 4 {
		u1, u2, out := float64s(aAt(2*n)), float64s(bAt(2*n)), cAt(n)
		for i := range n {
			u1[i], u2[i] = 1-float64(i+1)/128, float64(i)/128
		}
		boxMullerAsm(u1, u2, out, 0.5)
	}
	maxExtent := laneExtent(27, 70)
	rowsAt, zAt, dzAt, pairsAt := guardedFloats(t, maxExtent), guardedFloats(t, maxExtent), guardedFloats(t, maxExtent), guardedFloats(t, 27*26/2*Lanes)
	for _, f := range []int{1, 2, 3, 27} {
		for d := 1; d <= 70; d++ {
			fs, ext := laneStride(d), laneExtent(f, d)
			rows, z, dz, pairs := rowsAt(ext), zAt(ext), dzAt(ext), pairsAt(f*(f-1)/2*Lanes)
			blocks := make([][]float32, f)
			for i := range blocks {
				blocks[i] = rows[i*fs : i*fs+d*Lanes : i*fs+d*Lanes]
			}
			ToLanes(Lanes, d, blocks, d, z)
			PairDots(f, d, z, pairs)
			PairGrad(f, d, pairs, z, dz)
			FromLanes(Lanes, d, dz, blocks, d)
		}
	}
	if missing := missingAVX512(); len(missing) > 0 {
		t.Logf("splitmix64 kernels not run: missing %s", strings.Join(missing, ", "))
		return
	}
	for n := 8; n <= 72; n += 8 {
		uniformAsm(uint64(n), aAt(n), 0.5)
	}
	for n := 16; n <= 80; n += 16 {
		normalAsm(uint64(n), &normalLanes, cAt(n), 0.5)
	}
}

// float64s views an even-length float32 slice as float64s.
func float64s(f []float32) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(&f[0])), len(f)/2)
}
