package tensor

import "fmt"

// This file holds the lane-block kernels under nn.Interaction's training
// path. A lane block stores up to Lanes samples feature-major: vector c holds
// element c of every sample, one sample to a lane, so a kernel that runs
// vertical operations only computes all of its samples at once, and each
// lane's bits are those the per-sample product would give that sample. On
// amd64 with AVX2 and FMA the kernels are lanes_amd64.s, whose 512-bit tier
// of the two products gives the AVX2 bits; the Go twins below give the
// portable GEMM kernels' bits.

// Lanes is the number of samples a lane block holds, one per vector lane.
const Lanes = 8

// laneStride is the distance in floats between the features of a lane block
// of n vectors each. Where n·32 bytes is an even number of cache lines two
// vectors pad it to an odd one: at a power-of-two stride the kernels' walks
// over all features (one column tile of each) would land in few L1 sets,
// more lines than the cache has ways at 27 features of width 64.
func laneStride(n int) int {
	if n%4 == 0 {
		n += 2
	}
	return n * Lanes
}

// LaneBlock is the length of a lane block of f features of n vectors each.
func LaneBlock(f, n int) int { return f * laneStride(n) }

// laneExtent is how much of a lane block its f features reach: the last one
// needs no padding.
func laneExtent(f, n int) int {
	if f == 0 {
		return 0
	}
	return (f-1)*laneStride(n) + n*Lanes
}

// ToLanes transposes, for each f, rows ≤ Lanes rows of n floats, row r at
// srcs[f][r·ld:], into feature f of the lane block dst (LaneBlock(len(srcs),
// n) floats suffice): vector c of feature f holds srcs[f][r·ld+c] in lane r.
// The lanes of missing rows are zeroed.
func ToLanes(rows, n int, srcs [][]float32, ld int, dst []float32) {
	if rows < 1 || rows > Lanes || n < 0 || len(dst) < laneExtent(len(srcs), n) || !rowsFit(rows, n, srcs, ld) {
		panic(fmt.Sprintf("tensor: ToLanes %d rows of %d (ld %d) from %d blocks into %d floats", rows, n, ld, len(srcs), len(dst)))
	}
	done := 0
	if useAVX2 && rows == Lanes && n >= Lanes && len(srcs) > 0 {
		done = n &^ (Lanes - 1)
		lanesInAsm(done, n, srcs, ld, dst)
	}
	if done == n {
		return
	}
	fs := laneStride(n)
	for f, src := range srcs {
		block := dst[f*fs : f*fs+n*Lanes]
		for r := 0; r < Lanes; r++ {
			for c := done; c < n; c++ {
				v := float32(0)
				if r < rows {
					v = src[r*ld+c]
				}
				block[c*Lanes+r] = v
			}
		}
	}
}

// FromLanes is ToLanes' inverse for the first rows lanes: dsts[f][r·ld+c]
// becomes lane r of vector c of feature f, for r < rows, c < n.
func FromLanes(rows, n int, src []float32, dsts [][]float32, ld int) {
	if rows < 1 || rows > Lanes || n < 0 || len(src) < laneExtent(len(dsts), n) || !rowsFit(rows, n, dsts, ld) {
		panic(fmt.Sprintf("tensor: FromLanes %d rows of %d (ld %d) from %d floats into %d blocks", rows, n, ld, len(src), len(dsts)))
	}
	done := 0
	if useAVX2 && rows == Lanes && n >= Lanes && len(dsts) > 0 {
		done = n &^ (Lanes - 1)
		lanesOutAsm(done, n, src, dsts, ld)
	}
	if done == n {
		return
	}
	fs := laneStride(n)
	for f, dst := range dsts {
		block := src[f*fs : f*fs+n*Lanes]
		for r := 0; r < rows; r++ {
			row := dst[r*ld : r*ld+n]
			for c := done; c < n; c++ {
				row[c] = block[c*Lanes+r]
			}
		}
	}
}

// rowsFit reports whether every block holds rows rows of n floats, ld apart.
func rowsFit(rows, n int, blocks [][]float32, ld int) bool {
	if n == 0 {
		return true
	}
	if ld < n {
		return false
	}
	for _, b := range blocks {
		if len(b) < (rows-1)*ld+n {
			return false
		}
	}
	return true
}

// PairDots writes the strict lower triangle of each lane's Gram matrix: for
// the f features of the lane block z (as ToLanes writes it), out's vector
// p = i(i-1)/2 + j, i > j, is z_i·z_j lane by lane. Every lane gets the bits
// GemmTransBInto(f, d, f, Z, Z, G) gives G[i·f+j] for that sample's Z.
func PairDots(f, d int, z, out []float32) {
	p := f * (f - 1) / 2
	if f < 1 || d < 0 || len(z) < laneExtent(f, d) || len(out) < p*Lanes {
		panic(fmt.Sprintf("tensor: PairDots %d features of %d from %d floats into %d", f, d, len(z), len(out)))
	}
	switch {
	case p == 0:
	case d == 0:
		clear(out[:p*Lanes])
	case useAVX2:
		pairDotsAsm(f, d, z, out)
	default:
		pairDotsGo(f, d, z, out)
	}
}

// PairGrad computes the lane block dz = S·Z lane by lane for the f features
// of the lane block z, where S is the symmetric f×f matrix with a +0
// diagonal whose pair (i, j), i > j, is s's vector i(i-1)/2 + j (PairDots'
// order). Every lane gets the bits GemmInto(f, f, d, S, Z, dZ) gives that
// sample.
func PairGrad(f, d int, s, z, dz []float32) {
	if f < 1 || d < 0 || len(s) < f*(f-1)/2*Lanes || len(z) < laneExtent(f, d) || len(dz) < laneExtent(f, d) {
		panic(fmt.Sprintf("tensor: PairGrad %d features of %d from %d and %d floats into %d", f, d, len(s), len(z), len(dz)))
	}
	switch {
	case d == 0:
	case useAVX2:
		pairGradAsm(f, d, s, z, dz)
	default:
		pairGradGo(f, d, s, z, dz)
	}
}

// pairDotsGo is gemmDotGo's arithmetic for each lane: the products summed
// in ascending k from +0, then added to a cleared output.
func pairDotsGo(f, d int, z, out []float32) {
	fs, pos := laneStride(d), 0
	for i := 1; i < f; i++ {
		zi := z[i*fs : i*fs+d*Lanes]
		for j := 0; j < i; j++ {
			zj := z[j*fs : j*fs+d*Lanes]
			var s [Lanes]float32
			for c := 0; c < d; c++ {
				a, b := zi[c*Lanes:c*Lanes+Lanes], zj[c*Lanes:c*Lanes+Lanes]
				for l := range s {
					s[l] += a[l] * b[l]
				}
			}
			o := out[pos*Lanes : pos*Lanes+Lanes]
			for l, v := range s {
				o[l] = 0 + v // the cleared output's add: a fused chain's −0 becomes +0
			}
			pos++
		}
	}
}

// pairGradGo is gemmRowsGo's arithmetic for each lane: S_ij·z_j[c] summed in
// ascending j from +0, the diagonal's +0 term included, then added to a
// cleared output.
func pairGradGo(f, d int, s, z, dz []float32) {
	fs := laneStride(d)
	var zero [Lanes]float32
	for i := 0; i < f; i++ {
		for c := 0; c < d; c++ {
			var acc [Lanes]float32
			for j := 0; j < f; j++ {
				sv := zero[:]
				if j < i {
					sv = s[(i*(i-1)/2+j)*Lanes:]
				} else if j > i {
					sv = s[(j*(j-1)/2+i)*Lanes:]
				}
				zv := z[j*fs+c*Lanes : j*fs+c*Lanes+Lanes]
				for l := range acc {
					acc[l] += sv[l] * zv[l]
				}
			}
			o := dz[i*fs+c*Lanes : i*fs+c*Lanes+Lanes]
			for l, v := range acc {
				o[l] = 0 + v // the cleared output's add: a fused chain's −0 becomes +0
			}
		}
	}
}
