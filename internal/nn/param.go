// Package nn implements the dense neural-network substrate of a DLRM: linear
// layers, activations, multi-layer perceptrons, the dot-product feature
// interaction, binary cross-entropy loss, and a plain SGD optimizer. Layers
// follow a manual forward/backward discipline: Forward caches what Backward
// needs; Backward accumulates parameter gradients and returns the gradient
// with respect to the layer input.
package nn

import "repro/internal/tensor"

// Param is a trainable dense parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// newParam allocates a parameter and a zeroed gradient of the same shape.
func newParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(rows, cols),
		Grad:  tensor.New(rows, cols),
	}
}

// clone deep-copies the parameter value with a fresh, zeroed gradient.
func (p *Param) clone() *Param {
	return &Param{
		Name:  p.Name,
		Value: p.Value.Clone(),
		Grad:  tensor.New(p.Grad.Rows, p.Grad.Cols),
	}
}
