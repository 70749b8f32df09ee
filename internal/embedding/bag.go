// Package embedding implements the uncompressed embedding-table baseline: a
// sum-pooling EmbeddingBag with the semantics of torch.nn.EmbeddingBag
// (mode="sum", sparse gradients). It is both the reference the Eff-TT table
// is validated against and the table used by the DLRM / FAE / HugeCTR /
// TorchRec baseline systems.
package embedding

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Bag is a dense embedding table with sum pooling over per-sample index
// bags. Batches use the PyTorch indices+offsets encoding: offsets[i] is the
// start of sample i's indices; sample i owns indices[offsets[i]:offsets[i+1]].
type Bag struct {
	rows, dim int
	Weights   *tensor.Matrix // rows × dim
}

// NewBag allocates a rows×dim table initialized uniformly in
// [-√(1/rows), √(1/rows)], mirroring the DLRM reference initialization.
func NewBag(rows, dim int, rng *tensor.RNG) *Bag {
	if rows <= 0 || dim <= 0 {
		//elrec:invariant table shape comes from validated configs
		panic(fmt.Sprintf("embedding: invalid table shape %dx%d", rows, dim))
	}
	b := &Bag{rows: rows, dim: dim, Weights: tensor.New(rows, dim)}
	scale := float32(math.Sqrt(1 / float64(rows)))
	rng.FillUniform(b.Weights.Data, scale)
	return b
}

// NumRows returns the number of embedding rows.
func (b *Bag) NumRows() int { return b.rows }

// Dim returns the embedding dimension.
func (b *Bag) Dim() int { return b.dim }

// FootprintBytes returns the parameter storage size in bytes.
func (b *Bag) FootprintBytes() int64 { return int64(b.rows) * int64(b.dim) * 4 }

// validate panics when a batch description is malformed.
func validate(rows int, indices, offsets []int) {
	if len(offsets) == 0 {
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic("embedding: empty offsets")
	}
	if offsets[0] != 0 {
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic(fmt.Sprintf("embedding: offsets[0] = %d want 0", offsets[0]))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
			panic(fmt.Sprintf("embedding: offsets not monotone at %d", i))
		}
	}
	if offsets[len(offsets)-1] > len(indices) {
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic(fmt.Sprintf("embedding: last offset %d exceeds %d indices", offsets[len(offsets)-1], len(indices)))
	}
	for i, idx := range indices {
		if idx < 0 || idx >= rows {
			//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
			panic(fmt.Sprintf("embedding: index %d at position %d out of [0,%d)", idx, i, rows))
		}
	}
}

// Lookup returns the batch×dim matrix of sum-pooled embeddings. offsets has
// one entry per sample (its start in indices); the final sample extends to
// len(indices).
func (b *Bag) Lookup(indices, offsets []int) *tensor.Matrix {
	validate(b.rows, indices, offsets)
	batch := len(offsets)
	out := tensor.New(batch, b.dim)
	for s := 0; s < batch; s++ {
		lo, hi := BagBounds(offsets, s, len(indices))
		row := out.Row(s)
		for _, idx := range indices[lo:hi] {
			tensor.AddTo(row, b.Weights.Row(idx))
		}
	}
	return out
}

// BagBounds returns the [lo,hi) index range of sample s of a bag batch:
// offsets[s] up to the next sample's offset, or up to total for the last.
func BagBounds(offsets []int, s, total int) (int, int) {
	lo := offsets[s]
	hi := total
	if s+1 < len(offsets) {
		hi = offsets[s+1]
	}
	return lo, hi
}

// SparseGrad holds the aggregated gradient of a batch: one dense gradient
// row per unique accessed index.
type SparseGrad struct {
	Rows  []int          // unique row ids, ascending order of first occurrence
	Grads *tensor.Matrix // len(Rows) × dim
}

// Backward computes the sparse gradient of the sum-pooled lookup: the
// gradient of row r is the sum of dOut rows of every (sample, occurrence)
// of r in the batch, pre-aggregated over unique indices.
func (b *Bag) Backward(indices, offsets []int, dOut *tensor.Matrix) *SparseGrad {
	validate(b.rows, indices, offsets)
	if dOut.Rows != len(offsets) || dOut.Cols != b.dim {
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic(fmt.Sprintf("embedding: Backward grad %dx%d want %dx%d", dOut.Rows, dOut.Cols, len(offsets), b.dim))
	}
	uniq, inverse := Unique(indices)
	g := tensor.New(len(uniq), b.dim)
	for s := range offsets {
		lo, hi := BagBounds(offsets, s, len(indices))
		src := dOut.Row(s)
		for p := lo; p < hi; p++ {
			tensor.AddTo(g.Row(inverse[p]), src)
		}
	}
	return &SparseGrad{Rows: uniq, Grads: g}
}

// ApplySGD applies Weights[r] -= lr·grad[r] for every row in the sparse
// gradient.
func (b *Bag) ApplySGD(g *SparseGrad, lr float32) {
	for i, r := range g.Rows {
		tensor.Axpy(-lr, g.Grads.Row(i), b.Weights.Row(r))
	}
}

// Step is the convenience Backward+ApplySGD used by training loops.
func (b *Bag) Step(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	b.ApplySGD(b.Backward(indices, offsets, dOut), lr)
}

// Update is Step under the name the DLRM table interface expects, making
// Bag a drop-in peer of the TT tables.
func (b *Bag) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	b.Step(indices, offsets, dOut, lr)
}

// GatherRows copies the given rows into a fresh len(rows)×dim matrix; used
// by the parameter server to service pre-fetch requests.
func (b *Bag) GatherRows(rows []int) *tensor.Matrix {
	out := tensor.New(len(rows), b.dim)
	for i, r := range rows {
		if r < 0 || r >= b.rows {
			//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
			panic(fmt.Sprintf("embedding: GatherRows index %d out of range", r))
		}
		copy(out.Row(i), b.Weights.Row(r))
	}
	return out
}

// ScatterAdd adds delta rows into the table at the given row ids; used by
// the parameter server to apply pushed gradients (delta is already −lr·g).
func (b *Bag) ScatterAdd(rows []int, delta *tensor.Matrix) {
	if delta.Rows != len(rows) || delta.Cols != b.dim {
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic("embedding: ScatterAdd shape mismatch")
	}
	for i, r := range rows {
		tensor.AddTo(b.Weights.Row(r), delta.Row(i))
	}
}
