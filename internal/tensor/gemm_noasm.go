//go:build !amd64 || purego

package tensor

// Without the assembly the dispatch branches in gemm.go and tensor.go are
// dead code the compiler removes; these stubs only let them type-check.
const (
	useAVX2   = false
	useAVX512 = false
)

func gemmNNAsm(m, k, n int, a, b, c []float32, add bool)                {}
func gemmTNAsm(m, k, n int, a, b, c []float32, alpha float32, add bool) {}
func gemmNTAsm(m, k, n int, a, b, c []float32, add bool)                {}
func axpyAsm(alpha float32, x, y []float32)                             {}
func addToAsm(dst, src []float32)                                       {}
func addBiasAsm(y, bias []float32, rows, cols int, relu bool)           {}
func reluGradAsm(dy, y, db []float32, rows, cols int)                   {}
func boxMullerAsm(u1, u2 []float64, out []float32, std float32)         {}
func uniformAsm(state uint64, x []float32, scale float32)               {}
func lanesInAsm(done, n int, srcs [][]float32, ld int, dst []float32)   {}
func lanesOutAsm(done, n int, src []float32, dsts [][]float32, ld int)  {}
func pairDotsAsm(f, d int, z, out []float32)                            {}
func pairGradAsm(f, d int, s, z, dz []float32)                          {}

func normalAsm(state uint64, lanes *[32]uint64, x []float32, std float32) (zero bool) { return true }
