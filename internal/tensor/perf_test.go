package tensor

import (
	"runtime/debug"
	"testing"
)

// fillSeq deterministically fills x with small values.
func fillSeq(x []float32) {
	for i := range x {
		x[i] = float32(i%7) * 0.25
	}
}

// TestGemmKernelsZeroAllocSteadyState cross-checks hotalloc's static claim
// at runtime: every kernel entry point (and so, on an AVX2 host, each of
// the five assembly routines: row-broadcast for NN and TN, dot and the
// short-k tile for NT, axpy, dot, addTo) runs without heap allocation.
func TestGemmKernelsZeroAllocSteadyState(t *testing.T) {
	old := Workers()
	SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const m, k, n = 48, 32, 24
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	bt := make([]float32, n*k)
	fillSeq(a)
	fillSeq(b)
	fillSeq(bt)

	batch := make([]GemmBatch, 4)
	for i := range batch {
		batch[i] = GemmBatch{A: a[:4*8], B: b[:8*6], C: c[i*24 : i*24+24]}
	}

	var sink float32
	kernels := []struct {
		name string
		run  func()
	}{
		{"gemmBlocked", func() { gemmBlocked(m, k, n, a, b, c, false) }},
		{"gemmTransABlocked", func() { gemmTransABlocked(m, k, n, a[:k*m], b, c) }},
		{"gemmTransBBlocked", func() { gemmTransBBlocked(m, k, n, a, bt, c, false) }},
		{"gemmTransBBlocked-short-k", func() { gemmTransBBlocked(m, 5, n, a, bt, c, true) }},
		{"BatchedMatMul", func() { BatchedMatMul(4, 8, 6, batch) }},
		{"BatchedMatMulTransA", func() { BatchedMatMulTransA(4, 8, 6, batch) }},
		{"axpy", func() { axpy(0.5, bt, a[:len(bt)]) }},
		{"dot", func() { sink += dot(a[:100], b[:100]) }},
		{"AddTo", func() { AddTo(c[:100], a[:100]) }},
	}
	for _, tc := range kernels {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Fatalf("%s allocated %v times per call, want 0", tc.name, allocs)
			}
		})
	}
}
