//go:build amd64 && !purego

package tensor

// useAVX2 reports whether the CPU and the OS support the gemm_amd64.s
// kernels. It is detected once, before any kernel runs, and never changes:
// on a host where it is true every product, whatever its shape, takes the
// assembly.
var useAVX2 = detectAVX2()

// useAVX512 reports whether the products also take the 512-bit tier of
// gemm_amd64.s: NN, TN, and NT with k ≥ ntDotMinK. Like useAVX2 it is
// detected once; the two tiers give the same bits.
var useAVX512 = useAVX2 && len(missingAVX512()) == 0

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 checks AVX, FMA and AVX2 in CPUID and, through XGETBV, that
// the OS saves the YMM state across context switches.
func detectAVX2() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.7.0:EBX
		ymmXCR0 = 0b110  // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXCR0 != ymmXCR0 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// missingAVX512 names the CPUID features (AVX-512F, DQ, BW and VL, the
// x86-64-v4 set) and XCR0 state components (opmask, upper halves of ZMM0-15,
// ZMM16-31) the 512-bit tier needs and this host lacks. Call it only where
// detectAVX2 holds.
func missingAVX512() []string {
	_, ebx, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	var missing []string
	for _, f := range []struct {
		have bool
		name string
	}{
		{ebx&(1<<16) != 0, "CPUID.7.0:EBX.AVX512F"},
		{ebx&(1<<17) != 0, "CPUID.7.0:EBX.AVX512DQ"},
		{ebx&(1<<30) != 0, "CPUID.7.0:EBX.AVX512BW"},
		{ebx&(1<<31) != 0, "CPUID.7.0:EBX.AVX512VL"},
		{xcr0&(1<<5) != 0, "XCR0.opmask"},
		{xcr0&(1<<6) != 0, "XCR0.ZMM_Hi256"},
		{xcr0&(1<<7) != 0, "XCR0.Hi16_ZMM"},
	} {
		if !f.have {
			missing = append(missing, f.name)
		}
	}
	return missing
}

// gemmRowsAVX2 computes C = A·B or, with add set, C = α·A·B + C (one fused
// multiply-add per element: the bits of Axpy(α) of the stored product, of
// AddTo at α = 1) for m, k, n ≥ 1, where A's element (i, kk) is
// a[i*aRow+kk*aK] and C is row-major with row stride ldc (in elements). B is
// k×n row-major with row stride ldb or, with bTrans set (k ≤ 8 only, ldb
// unused), n×k dense. It reads and writes exactly the elements that names.
//
//go:noescape
func gemmRowsAVX2(m, k, n int, a *float32, aRow, aK int, b *float32, ldb int, c *float32, ldc int, alpha float32, add, bTrans bool)

// gemmDotAVX2 computes C (+)= A·Bᵀ for m, k, n ≥ 1 with A m×k, B n×k and C
// m×n dense row-major.
//
//go:noescape
func gemmDotAVX2(m, k, n int, a, b, c *float32, add bool)

// gemmRowsAVX512 is gemmRowsAVX2 without bTrans for n a multiple of 16, and
// gemmDotAVX512 is gemmDotAVX2 for even m: the 512-bit tier, same bits.
//
//go:noescape
func gemmRowsAVX512(m, k, n int, a *float32, aRow, aK int, b *float32, ldb int, c *float32, ldc int, alpha float32, add bool)

//go:noescape
func gemmDotAVX512(m, k, n int, a, b, c *float32, add bool)

//go:noescape
func axpyAVX2(alpha float32, x, y *float32, n int)

//go:noescape
func addToAVX2(dst, src *float32, n int)

// addBiasAVX2 and reluGradAVX2 work on dense rows×cols blocks, rows, cols ≥ 1.
//
//go:noescape
func addBiasAVX2(y, bias *float32, rows, cols int, relu bool)

//go:noescape
func reluGradAVX2(dy, y, db *float32, rows, cols int)

// boxMullerAVX2 writes out[i] = float32(boxMuller(u1[i], u2[i]))·std for
// i < n, n a positive multiple of 4, u1 ∈ [2⁻⁵³, 1) and u2 ∈ [0, 1).
//
//go:noescape
func boxMullerAVX2(u1, u2 *float64, out *float32, n int, std float32)

// normalAVX512 is boxMullerAVX2 on the 512-bit tier with the draws fused
// in: it writes out[i] = float32(boxMuller(u1, u2))·std for the Float64 pair
// at counters state + lanes[…] (the layout normalLanes gives, each counter
// stepping by 32γ per sixteen elements), i < n, n a positive multiple of 16,
// and reports whether any u1 drew 0.
//
//go:noescape
func normalAVX512(state uint64, lanes *[32]uint64, out *float32, n int, std float32) (zero bool)

// uniformAVX512 (splitmix_amd64.s) computes FillUniform's values for n
// elements, n a positive multiple of 8, eight splitmix64 draws per vector
// from the RNG state. The state itself is the caller's to advance.
//
//go:noescape
func uniformAVX512(state uint64, x *float32, n int, scale float32)

// lanesInAVX2, lanesOutAVX2, pairDotsAVX2 and pairGradAVX2 are the
// lane-block kernels (lanes_amd64.s, lanes.go): ToLanes and FromLanes over
// feats ≥ 1 blocks of tiles ≥ 1 8×8 tiles, strides in floats; PairDots for
// f ≥ 2, d ≥ 1; PairGrad for f ≥ 1 over the first 1 ≤ cols ≤ d columns of
// each feature. pairDotsAVX512 (d ≥ 8, tail the masks dotTailMasks gives)
// and pairGradAVX512 (the first d &^ 15 ≥ 16 columns) are their 512-bit
// tier: same bits.
//
//go:noescape
func lanesInAVX2(feats, tiles int, srcs *[]float32, ld int, dst *float32, fs int)

//go:noescape
func lanesOutAVX2(feats, tiles int, src *float32, fs int, dsts *[]float32, ld int)

//go:noescape
func pairDotsAVX2(f, d, fs int, z, out *float32)

//go:noescape
func pairGradAVX2(f, fs, cols int, s, z, dz *float32)

//go:noescape
func pairDotsAVX512(f, d, fs int, z, out *float32, tail uint64)

//go:noescape
func pairGradAVX512(f, d, fs int, s, z, dz *float32)

// The slice-taking wrappers below are what the dispatchers in gemm.go and
// tensor.go call. Each asserts the extent the assembly will touch (so a short
// buffer panics here instead of faulting there) and needs m, k, n ≥ 1.

func gemmNNAsm(m, k, n int, a, b, c []float32, add bool) {
	_, _, _ = a[m*k-1], b[k*n-1], c[m*n-1]
	gemmRows(useAVX512, m, k, n, a, k, 1, b, c, 1, add)
}

func gemmTNAsm(m, k, n int, a, b, c []float32, alpha float32, add bool) {
	_, _, _ = a[k*m-1], b[k*n-1], c[m*n-1]
	gemmRows(useAVX512, m, k, n, a, 1, m, b, c, alpha, add)
}

// ntDotMinK is the shortest B row the dot kernel takes. Below it a k-long
// dot fills less than one vector and the per-output reduction dominates, so
// the AVX2 row-broadcast kernel runs instead, gathering B sixteen rows at a
// time into its k×16 stack tile (which holds k ≤ 8). The choice reads k alone.
const ntDotMinK = 8

func gemmNTAsm(m, k, n int, a, b, c []float32, add bool) {
	_, _, _ = a[m*k-1], b[n*k-1], c[m*n-1]
	if k >= ntDotMinK {
		gemmDot(useAVX512, m, k, n, a, b, c, add)
		return
	}
	gemmRowsAVX2(m, k, n, &a[0], k, 1, &b[0], 0, &c[0], n, 1, add, true)
}

// gemmRows and gemmDot run the row-broadcast or the dot kernel of the wide
// tier or of AVX2; the tests call both tiers through them. The wide kernels
// take whole 16-column strips and row pairs, so the last n mod 16 columns
// and an odd last row run the AVX2 kernel, which gives them the same bits.
// B and C are dense (ldb = ldc = n).
func gemmRows(wide bool, m, k, n int, a []float32, aRow, aK int, b, c []float32, alpha float32, add bool) {
	done := 0
	if wide {
		done = n &^ 15
		if done > 0 {
			gemmRowsAVX512(m, k, done, &a[0], aRow, aK, &b[0], n, &c[0], n, alpha, add)
		}
	}
	if done < n {
		gemmRowsAVX2(m, k, n-done, &a[0], aRow, aK, &b[done], n, &c[done], n, alpha, add, false)
	}
}

func gemmDot(wide bool, m, k, n int, a, b, c []float32, add bool) {
	if !wide {
		gemmDotAVX2(m, k, n, &a[0], &b[0], &c[0], add)
		return
	}
	if even := m &^ 1; even > 0 {
		gemmDotAVX512(even, k, n, &a[0], &b[0], &c[0], add)
	}
	if m&1 != 0 {
		gemmDotAVX2(1, k, n, &a[(m-1)*k], &b[0], &c[(m-1)*n], add)
	}
}

func axpyAsm(alpha float32, x, y []float32) {
	_ = y[len(x)-1]
	axpyAVX2(alpha, &x[0], &y[0], len(x))
}

func addToAsm(dst, src []float32) {
	_ = dst[len(src)-1]
	addToAVX2(&dst[0], &src[0], len(src))
}

func addBiasAsm(y, bias []float32, rows, cols int, relu bool) {
	_, _ = y[rows*cols-1], bias[cols-1]
	addBiasAVX2(&y[0], &bias[0], rows, cols, relu)
}

func reluGradAsm(dy, y, db []float32, rows, cols int) {
	_, _, _ = dy[rows*cols-1], y[rows*cols-1], db[cols-1]
	reluGradAVX2(&dy[0], &y[0], &db[0], rows, cols)
}

func boxMullerAsm(u1, u2 []float64, out []float32, std float32) {
	n := len(out)
	_, _ = u1[n-1], u2[n-1]
	boxMullerAVX2(&u1[0], &u2[0], &out[0], n, std)
}

func uniformAsm(state uint64, x []float32, scale float32) {
	uniformAVX512(state, &x[0], len(x), scale)
}

// normalAsm fills x, len(x) a positive multiple of 16.
func normalAsm(state uint64, lanes *[32]uint64, x []float32, std float32) (zero bool) {
	return normalAVX512(state, lanes, &x[0], len(x), std)
}

// lanesInAsm and lanesOutAsm move the first done columns, a positive
// multiple of 8, of full eight-row blocks; the callers have checked every
// extent.
func lanesInAsm(done, n int, srcs [][]float32, ld int, dst []float32) {
	lanesInAVX2(len(srcs), done/Lanes, &srcs[0], ld, &dst[0], laneStride(n))
}

func lanesOutAsm(done, n int, src []float32, dsts [][]float32, ld int) {
	lanesOutAVX2(len(dsts), done/Lanes, &src[0], laneStride(n), &dsts[0], ld)
}

func pairDotsAsm(f, d int, z, out []float32) { pairDots(useAVX512, f, d, z, out) }

func pairGradAsm(f, d int, s, z, dz []float32) { pairGrad(useAVX512, f, d, s, z, dz) }

// pairDots and pairGrad run the lane kernels of the wide tier or of AVX2;
// the tests call both tiers through them. The wide pair dots need d ≥ 8
// (below it NT runs one chain, pairDotsAVX2's), and the wide pair gradient
// hands the last d mod 16 columns to AVX2.
func pairDots(wide bool, f, d int, z, out []float32) {
	fs := laneStride(d)
	_, _ = z[(f-1)*fs+d*Lanes-1], out[f*(f-1)/2*Lanes-1]
	if wide && d >= Lanes {
		pairDotsAVX512(f, d, fs, &z[0], &out[0], dotTailMasks(d%Lanes))
		return
	}
	pairDotsAVX2(f, d, fs, &z[0], &out[0])
}

// dotTailMasks is pairDotsAVX512's last-step masks for d mod 8 = r: 16-lane
// register m holds chains 2m and 2m+1, each real where it is < r.
func dotTailMasks(r int) uint64 {
	var masks uint64
	for m := 0; m < 4; m++ {
		if 2*m < r {
			masks |= 0x00ff << (16 * m)
		}
		if 2*m+1 < r {
			masks |= 0xff00 << (16 * m)
		}
	}
	return masks
}

func pairGrad(wide bool, f, d int, s, z, dz []float32) {
	fs := laneStride(d)
	_, _ = z[(f-1)*fs+d*Lanes-1], dz[(f-1)*fs+d*Lanes-1]
	sp := &z[0] // f = 1 has no pairs, and the kernels read none
	if f > 1 {
		_ = s[f*(f-1)/2*Lanes-1]
		sp = &s[0]
	}
	done := 0
	if wide {
		done = d &^ 15
		if done > 0 {
			pairGradAVX512(f, d, fs, sp, &z[0], &dz[0])
		}
	}
	if done < d {
		pairGradAVX2(f, fs, d-done, sp, &z[done*Lanes], &dz[done*Lanes])
	}
}
