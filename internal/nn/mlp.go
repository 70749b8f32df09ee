package nn

import (
	"repro/internal/tensor"
)

// MLP is a stack of linear layers, every one but the last clamped at zero
// (ReLU), matching the bottom/top MLP towers of the DLRM reference
// implementation. The last layer's output is the raw logit.
type MLP struct {
	Sizes  []int
	layers []*linear
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [13, 512,
// 256, 64] builds three linear layers.
func NewMLP(sizes []int, rng *tensor.RNG) *MLP {
	if len(sizes) < 2 {
		panic(usageErr("MLP needs at least 2 sizes, got %v", sizes))
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		l := newLinear(sizes[i], sizes[i+1], rng)
		l.relu = i+2 < len(sizes)
		m.layers = append(m.layers, l)
	}
	return m
}

// Forward runs the batch through every layer.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.layers {
		x = l.forward(x)
	}
	return x
}

// Backward propagates the output gradient through every layer in reverse.
// dy is only read.
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(m.layers) - 1; i >= 0; i-- {
		dy = m.layers[i].backward(dy)
	}
	return dy
}

// Params returns all trainable parameters in layer order.
func (m *MLP) Params() []*Param {
	out := make([]*Param, 0, 2*len(m.layers))
	for _, l := range m.layers {
		out = append(out, l.W, l.B)
	}
	return out
}

// Clone returns a deep copy of the MLP: same layer stack, copied parameter
// values, fresh gradient accumulators and fresh layer-owned scratch buffers.
// Because every mutable buffer is per-clone, a clone's Forward never races
// with its source's — the property the serving replica pool builds on.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	for _, l := range m.layers {
		c.layers = append(c.layers, &linear{In: l.In, Out: l.Out, W: l.W.clone(), B: l.B.clone(), relu: l.relu})
	}
	return c
}
