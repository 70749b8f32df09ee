package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// perSampleInteraction is the training path the lane-block one replaced, kept
// as its oracle: per sample, pack the stacked features Z, then the forward
// is GemmTransBInto's Z·Zᵀ with its strict lower triangle after the dense
// vector, and the backward fills the symmetric S (+0 diagonal) from dy,
// takes GemmInto's S·Z and AddTo's dense term.
func perSampleInteraction(dim int, dense *tensor.Matrix, embs []*tensor.Matrix, dy *tensor.Matrix) (out, dDense *tensor.Matrix, dEmbs []*tensor.Matrix) {
	f, batch := len(embs)+1, dense.Rows
	od := dim + f*(f-1)/2
	out, dDense = tensor.New(batch, od), tensor.New(batch, dim)
	for range embs {
		dEmbs = append(dEmbs, tensor.New(batch, dim))
	}
	z, gram, dz := make([]float32, f*dim), make([]float32, f*f), make([]float32, f*dim)
	for s := 0; s < batch; s++ {
		copy(z, dense.Row(s))
		for t, e := range embs {
			copy(z[(t+1)*dim:], e.Row(s))
		}
		tensor.GemmTransBInto(f, dim, f, z, z, gram)
		row := out.Row(s)
		pos := copy(row, z[:dim])
		for i := 1; i < f; i++ {
			pos += copy(row[pos:pos+i], gram[i*f:])
		}

		g := dy.Row(s)
		pos = dim
		for i := 0; i < f; i++ {
			for j := 0; j < i; j++ {
				gram[i*f+j], gram[j*f+i] = g[pos], g[pos]
				pos++
			}
			gram[i*f+i] = 0
		}
		tensor.GemmInto(f, f, dim, gram, z, dz)
		tensor.AddTo(dz[:dim], g[:dim])
		copy(dDense.Row(s), dz)
		for t, de := range dEmbs {
			copy(de.Row(s), dz[(t+1)*dim:])
		}
	}
	return out, dDense, dEmbs
}

// fuzzOperand decodes one operand byte: about one in ten a special value
// (signed zeros, subnormals, products that underflow, infinities, NaN, the
// largest finite values), otherwise a small value of either sign scaled by
// the operand's position.
func fuzzOperand(b byte, k int) float32 {
	specials := [...]float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1e-30, -1e-30, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32, 1,
	}
	if int(b) < 2*len(specials) {
		return specials[int(b)%len(specials)]
	}
	return float32(int(b)-140) / 32 * float32(1+k%7)
}

// FuzzInteractionMatchesPerSample: Forward and Backward against
// perSampleInteraction, bit for bit — a NaN must meet a NaN, but its sign and
// payload are outside the kernels' rule (DESIGN.md §12) — for a batch of 1
// to 40, a width of 1 to 70 and 1 to 30 tables decoded from the first three
// bytes, operands from the rest, cycled.
func FuzzInteractionMatchesPerSample(f *testing.F) {
	f.Add([]byte{8, 31, 25, 3, 200, 17, 90, 250, 1, 140})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		batch, dim, tables := 1+int(data[0])%40, 1+int(data[1])%70, 1+int(data[2])%30
		ops, k := data[3:], 0
		operands := func(rows, cols int) *tensor.Matrix {
			m := tensor.New(rows, cols)
			for i := range m.Data {
				m.Data[i] = fuzzOperand(ops[k%len(ops)]^byte(k/len(ops)), k)
				k++
			}
			return m
		}
		it := NewInteraction(dim, tables)
		dense, embs := operands(batch, dim), make([]*tensor.Matrix, tables)
		for i := range embs {
			embs[i] = operands(batch, dim)
		}
		dy := operands(batch, it.OutputDim())
		wantOut, wantDDense, wantDEmbs := perSampleInteraction(dim, dense, embs, dy)
		out := it.Forward(dense, embs)
		dDense, dEmbs := it.Backward(dy)
		check := func(name string, got, want *tensor.Matrix) {
			for i, w := range want.Data {
				if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
					t.Fatalf("batch %d dim %d tables %d, %s[%d][%d] = %v (%#x) want %v (%#x)",
						batch, dim, tables, name, i/want.Cols, i%want.Cols, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
		check("out", out, wantOut)
		check("dDense", dDense, wantDDense)
		for i := range dEmbs {
			check(fmt.Sprintf("dEmbs[%d]", i), dEmbs[i], wantDEmbs[i])
		}
	})
}
