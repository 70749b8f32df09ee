package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// linear is a fully connected layer computing y = x·Wᵀ + b for a batch of
// row vectors, matching torch.nn.Linear's weight layout (W is out×in). As a
// hidden layer of an MLP it also owns the activation that follows it,
// y = max(x·Wᵀ + b, 0): one product and one pass over y in each direction.
type linear struct {
	In, Out int
	W       *Param // Out × In
	B       *Param // 1 × Out

	relu  bool           // clamp the output at zero; set by NewMLP
	x     *tensor.Matrix // cached input from Forward
	y, dx *tensor.Matrix // layer-owned output/input-grad buffers, reused per step
}

// newLinear constructs a linear layer with Xavier-initialized weights.
func newLinear(in, out int, rng *tensor.RNG) *linear {
	l := &linear{
		In:  in,
		Out: out,
		W:   newParam(fmt.Sprintf("linear%dx%d.W", out, in), out, in),
		B:   newParam(fmt.Sprintf("linear%dx%d.b", out, in), 1, out),
	}
	tensor.XavierInit(l.W.Value, rng)
	return l
}

// forward computes y = x·Wᵀ + b, clamped at zero in a hidden layer, and
// caches x for backward. The returned matrix is layer-owned and overwritten
// by the next forward.
func (l *linear) forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.In {
		panic(shapeErr("Linear forward input width %d want %d", x.Cols, l.In))
	}
	l.x = x
	l.y = tensor.Reuse(l.y, x.Rows, l.Out)
	y := l.y
	tensor.MatMulTransB(y, x, l.W.Value)
	tensor.AddBias(y, l.B.Value.Data, l.relu)
	return y
}

// backward accumulates dW += dyᵀ·x and db += Σᵢ dyᵢ, and returns dx = dy·W.
// A hidden layer first zeroes dy in place wherever its output was clamped:
// there dy is the next layer's dx scratch, never a caller's matrix, because
// an MLP's output layer has no clamp.
func (l *linear) backward(dy *tensor.Matrix) *tensor.Matrix {
	if l.x == nil {
		panic(usageErr("Linear Backward before Forward"))
	}
	if dy.Rows != l.x.Rows || dy.Cols != l.Out {
		panic(shapeErr("Linear backward grad %dx%d want %dx%d", dy.Rows, dy.Cols, l.x.Rows, l.Out))
	}
	db := l.B.Grad.Data
	if l.relu {
		tensor.ReLUGrad(dy, l.y, db)
	} else {
		for i := 0; i < dy.Rows; i++ {
			tensor.AddTo(db, dy.Row(i))
		}
	}
	tensor.MatMulTransAAdd(l.W.Grad, dy, l.x)
	l.dx = tensor.Reuse(l.dx, dy.Rows, l.In)
	tensor.MatMul(l.dx, dy, l.W.Value)
	return l.dx
}
