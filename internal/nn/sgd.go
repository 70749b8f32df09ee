package nn

import "repro/internal/tensor"

// SGD is a plain stochastic-gradient-descent optimizer, the optimizer the
// paper trains every system with (sparse embedding updates are handled by
// the embedding/tt packages themselves).
type SGD struct {
	LR float32
}

// NewSGD returns an optimizer with the given learning rate.
func NewSGD(lr float32) *SGD { return &SGD{LR: lr} }

// Step applies p.Value -= lr·p.Grad to every parameter and clears the
// gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		tensor.Axpy(-s.LR, p.Grad.Data, p.Value.Data)
		p.Grad.Zero()
	}
}
