package embedding

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// AdagradBag wraps a Bag with row-wise Adagrad state: the sparse analogue of
// torch's SparseAdam/Adagrad for embeddings. Only rows touched by a batch
// pay any cost. It satisfies the same table interface as Bag, with Update
// applying the adaptive rule instead of plain SGD.
type AdagradBag struct {
	*Bag
	Eps float32
	// accum[r*dim+j] is the running sum of squared gradients of entry (r,j).
	accum []float32
}

// NewAdagradBag wraps an existing Bag (which keeps its initialization).
func NewAdagradBag(bag *Bag) *AdagradBag {
	return &AdagradBag{
		Bag:   bag,
		Eps:   1e-8,
		accum: make([]float32, bag.NumRows()*bag.Dim()),
	}
}

// Update aggregates the batch gradient per unique row, in the Bag's
// table-owned scratch, and applies the Adagrad update to exactly those rows.
func (a *AdagradBag) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	g := a.aggregate(indices, offsets, dOut)
	dim := a.Dim()
	for i, r := range a.uniq {
		grow := g.Row(i)
		wrow := a.Weights.Row(r)
		arow := a.accum[r*dim : (r+1)*dim]
		for j, gv := range grow {
			arow[j] += gv * gv
			wrow[j] -= lr * gv / float32(math.Sqrt(float64(arow[j])+float64(a.Eps)))
		}
	}
}

// AccumRow returns the accumulator of one row (for tests/checkpoints).
func (a *AdagradBag) AccumRow(r int) []float32 {
	if r < 0 || r >= a.NumRows() {
		panic(fmt.Sprintf("embedding: AccumRow %d out of range", r))
	}
	return a.accum[r*a.Dim() : (r+1)*a.Dim()]
}

// FootprintBytes includes the optimizer state (it doubles the table).
func (a *AdagradBag) FootprintBytes() int64 { return 2 * a.Bag.FootprintBytes() }
