package tensor

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// fillSeq deterministically fills x with small values.
func fillSeq(x []float32) {
	for i := range x {
		x[i] = float32(i%7) * 0.25
	}
}

// TestGemmKernelsZeroAllocSteadyState: every kernel entry point (and so, on
// an AVX2 or AVX-512 host, each of the four assembly routines: row-broadcast
// for NN and TN, dot and the short-k tile for NT, axpy, addTo) runs without
// heap allocation, and so do MatMul's and MatMulTransB's row splits — at one
// worker, where ParallelFor runs them inline, and at the host's width (at
// least two), where it dispatches them over the pool through a recycled job
// header.
func TestGemmKernelsZeroAllocSteadyState(t *testing.T) {
	defer SetMaxWorkers(Workers())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const m, k, n = 48, 32, 24
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	bt := make([]float32, n*k)
	fillSeq(a)
	fillSeq(b)
	fillSeq(bt)
	// 256·128·128 multiply-adds is parallelThreshold: the products split.
	x, w, y := New(256, 128), New(128, 128), New(256, 128)
	fillSeq(x.Data)
	fillSeq(w.Data)

	kernels := []struct {
		name string
		run  func()
	}{
		{"gemmBlocked", func() { gemmBlocked(m, k, n, a, b, c, false) }},
		{"gemmTransABlocked", func() { gemmTransABlocked(m, k, n, a[:k*m], b, c, 1, true) }},
		{"gemmTransBBlocked", func() { gemmTransBBlocked(m, k, n, a, bt, c, false) }},
		{"gemmTransBBlocked-short-k", func() { gemmTransBBlocked(m, 5, n, a, bt, c, true) }},
		{"GemmTransBInto-gram", func() { GemmTransBInto(27, 32, 27, a, a, c) }},
		{"GemmInto-27x27x24", func() { GemmInto(27, 27, 24, a, b, c) }},
		{"GemmTransAInto-48x8x24", func() { GemmTransAInto(48, 8, 24, a, b, c) }},
		{"axpy", func() { axpy(0.5, bt, a[:len(bt)]) }},
		{"AddTo", func() { AddTo(c[:100], a[:100]) }},
		{"MatMul-split", func() { MatMul(y, x, w) }},
		{"MatMulTransB-split", func() { MatMulTransB(y, x, w) }},
	}
	for _, tc := range kernels {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, max(2, runtime.NumCPU())} {
				SetMaxWorkers(workers)
				tc.run() // warm-up: the pool's workers, headers and splits
				if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
					t.Fatalf("%s allocated %v times per call at %d workers, want 0", tc.name, allocs, workers)
				}
			}
		})
	}
}
