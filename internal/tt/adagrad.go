package tt

import (
	"math"

	"repro/internal/tensor"
)

// EnableAdagrad switches the table's update rule from plain SGD to Adagrad:
// every TT-core entry keeps a squared-gradient accumulator and is updated
// with lr/√(accum+eps). Works with both the fused and unfused backward
// paths (the fused path updates accumulators inside the same kernel, the
// natural extension of the paper's fused TT core update).
func (t *Table) EnableAdagrad() {
	if t.adagrad[0] != nil {
		return
	}
	for k := 0; k < Dims; k++ {
		t.adagrad[k] = tensor.New(t.Cores[k].Rows, t.Cores[k].Cols)
	}
}

// AdagradEnabled reports whether the adaptive update rule is active.
func (t *Table) AdagradEnabled() bool { return t.adagrad[0] != nil }

// AdagradAccum exposes core k's accumulator (for tests and checkpoints);
// nil when Adagrad is disabled.
func (t *Table) AdagradAccum(k int) *tensor.Matrix { return t.adagrad[k] }

// adagradEps matches the dense optimizer's epsilon.
const adagradEps = 1e-8

// applyGradSlice applies grad to core k's slice row, using Adagrad when
// enabled and plain SGD otherwise. The caller owns the slice: the two-level
// backward gives every slice exactly one writer per batch, the
// per-occurrence baseline wraps the call in the row's stripe lock.
func (t *Table) applyGradSlice(k, row int, grad []float32, lr float32) {
	dst := t.Cores[k].Row(row)
	if acc := t.adagrad[k]; acc != nil {
		arow := acc.Row(row)
		for i, g := range grad {
			arow[i] += g * g
			dst[i] -= lr * g / float32(math.Sqrt(float64(arow[i])+adagradEps))
		}
	} else {
		tensor.Axpy(-lr, grad, dst)
	}
}

// adagradSweep applies the unfused update from full core-gradient buffers.
func (t *Table) adagradSweep(gradBufs [Dims]*tensor.Matrix, lr float32) {
	for k := 0; k < Dims; k++ {
		acc := t.adagrad[k]
		core := t.Cores[k]
		for i, g := range gradBufs[k].Data {
			acc.Data[i] += g * g
			core.Data[i] -= lr * g / float32(math.Sqrt(float64(acc.Data[i])+adagradEps))
		}
	}
}
