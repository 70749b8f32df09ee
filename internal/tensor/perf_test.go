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
// at runtime: every kernel entry point (and so, on an AVX2 or AVX-512 host, each of
// the four assembly routines: row-broadcast for NN and TN, dot and the
// short-k tile for NT, axpy, addTo) runs without heap allocation.
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
	}
	for _, tc := range kernels {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Fatalf("%s allocated %v times per call, want 0", tc.name, allocs)
			}
		})
	}
}
