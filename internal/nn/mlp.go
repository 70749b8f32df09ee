package nn

import (
	"repro/internal/tensor"
)

// MLP is a stack of Linear layers with ReLU between them, matching the
// bottom/top MLP towers of the DLRM reference implementation. When
// sigmoidOut is set the final layer output passes through a Sigmoid (the
// CTR prediction head).
type MLP struct {
	Sizes  []int
	layers []Layer
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [13, 512,
// 256, 64] builds three Linear layers. sigmoidOut appends a Sigmoid after
// the last Linear; hidden layers always use ReLU.
func NewMLP(sizes []int, sigmoidOut bool, rng *tensor.RNG) *MLP {
	if len(sizes) < 2 {
		//elrec:invariant model construction: layer sizes are fixed in the DLRM config
		panic(usageErr("MLP needs at least 2 sizes, got %v", sizes))
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, NewLinear(sizes[i], sizes[i+1], rng))
		last := i+2 == len(sizes)
		if !last {
			m.layers = append(m.layers, NewReLU())
		} else if sigmoidOut {
			m.layers = append(m.layers, NewSigmoid())
		}
	}
	return m
}

// Forward runs the batch through every layer.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the output gradient through every layer in reverse.
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(m.layers) - 1; i >= 0; i-- {
		dy = m.layers[i].Backward(dy)
	}
	return dy
}

// Params returns all trainable parameters in layer order.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total trainable element count, used for footprint
// accounting in the experiment harness.
func (m *MLP) NumParams() int {
	var n int
	for _, p := range m.Params() {
		n += len(p.Value.Data)
	}
	return n
}

// Clone returns a deep copy of the MLP: same layer stack, copied parameter
// values, fresh gradient accumulators and fresh layer-owned scratch buffers.
// Because every mutable buffer is per-clone, a clone's Forward never races
// with its source's — the property the serving replica pool builds on.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	for _, l := range m.layers {
		c.layers = append(c.layers, cloneLayer(l))
	}
	return c
}

// cloneLayer deep-copies one layer's parameters, leaving scratch unshared.
func cloneLayer(l Layer) Layer {
	switch v := l.(type) {
	case *Linear:
		return &Linear{In: v.In, Out: v.Out, W: v.W.clone(), B: v.B.clone()}
	case *ReLU:
		return NewReLU()
	case *Sigmoid:
		return NewSigmoid()
	default:
		//elrec:invariant NewMLP only stacks Linear/ReLU/Sigmoid layers
		panic(usageErr("Clone: unknown layer type %T", l))
	}
}

// CopyParamsFrom copies parameter values from src (same architecture) into
// m. Used to replicate MLP towers across data-parallel workers.
func (m *MLP) CopyParamsFrom(src *MLP) {
	sp, dp := src.Params(), m.Params()
	if len(sp) != len(dp) {
		//elrec:invariant parameter copies only run between identically configured models
		panic(usageErr("CopyParamsFrom architecture mismatch"))
	}
	for i := range sp {
		dp[i].Value.CopyFrom(sp[i].Value)
	}
}
