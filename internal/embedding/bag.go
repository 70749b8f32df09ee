// Package embedding implements the uncompressed embedding-table baseline: a
// sum-pooling EmbeddingBag with the semantics of torch.nn.EmbeddingBag
// (mode="sum", sparse gradients). It is both the reference the Eff-TT table
// is validated against and the table used by the DLRM / FAE / HugeCTR /
// TorchRec baseline systems.
package embedding

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Bag is a dense embedding table with sum pooling over per-sample index
// bags. Batches use the PyTorch indices+offsets encoding: offsets[i] is the
// start of sample i's indices; sample i owns indices[offsets[i]:offsets[i+1]].
//
// Bag follows the table-scratch contract every dlrm.Table kind shares:
// Lookup pools into a table-owned matrix that stays valid until the table's
// next Lookup, and Update deduplicates and aggregates in table-owned
// scratch, so a steady-state step allocates nothing. Lookup and Update are
// therefore serialized per Bag; concurrent readers take a View each.
type Bag struct {
	rows, dim int
	Weights   *tensor.Matrix // rows × dim

	out  *tensor.Matrix // Lookup's result, overwritten by the next Lookup
	seen Index          // Update's dedup of the batch's indices
	uniq []int          // unique rows in first-occurrence order
	grad *tensor.Matrix // row u: the summed gradient of uniq[u]
}

// InitScale is the bound of a rows-row table's uniform initialisation,
// √(1/rows), mirroring the DLRM reference. It is the one owner of that rule:
// NewBag and a PS shard initialising its rows of a host table both use it.
func InitScale(rows int) float32 {
	return float32(math.Sqrt(1 / float64(rows)))
}

// NewBag allocates a rows×dim table initialized uniformly in
// [-InitScale(rows), InitScale(rows)], one row after another from rng.
func NewBag(rows, dim int, rng *tensor.RNG) *Bag {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("embedding: invalid table shape %dx%d", rows, dim))
	}
	b := &Bag{rows: rows, dim: dim, Weights: tensor.New(rows, dim)}
	rng.FillUniform(b.Weights.Data, InitScale(rows))
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
		panic("embedding: empty offsets")
	}
	if offsets[0] != 0 {
		panic(fmt.Sprintf("embedding: offsets[0] = %d want 0", offsets[0]))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			panic(fmt.Sprintf("embedding: offsets not monotone at %d", i))
		}
	}
	if offsets[len(offsets)-1] > len(indices) {
		panic(fmt.Sprintf("embedding: last offset %d exceeds %d indices", offsets[len(offsets)-1], len(indices)))
	}
	for i, idx := range indices {
		if idx < 0 || idx >= rows {
			panic(fmt.Sprintf("embedding: index %d at position %d out of [0,%d)", idx, i, rows))
		}
	}
}

// Lookup returns the batch×dim matrix of sum-pooled embeddings. offsets has
// one entry per sample (its start in indices); the final sample extends to
// len(indices). The result is table-owned: it stays valid until this Bag's
// next Lookup, which overwrites it.
func (b *Bag) Lookup(indices, offsets []int) *tensor.Matrix {
	validate(b.rows, indices, offsets)
	b.out = tensor.Reuse(b.out, len(offsets), b.dim)
	b.out.Zero()
	for s := range offsets {
		lo, hi := BagBounds(offsets, s, len(indices))
		row := b.out.Row(s)
		for _, idx := range indices[lo:hi] {
			tensor.AddTo(row, b.Weights.Row(idx))
		}
	}
	return b.out
}

// View returns a Bag over the same Weights with scratch of its own: a
// serving replica looks up through its view while other replicas use
// theirs. Updating through any of them changes the rows all of them read.
func (b *Bag) View() *Bag {
	return &Bag{rows: b.rows, dim: b.dim, Weights: b.Weights}
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
// of r in the batch, pre-aggregated over unique indices. The result is
// fresh, for callers that need the gradient itself (the tests' oracle of
// Update); training calls Update, which applies the same sums without
// materializing them.
func (b *Bag) Backward(indices, offsets []int, dOut *tensor.Matrix) *SparseGrad {
	g := b.aggregate(indices, offsets, dOut)
	return &SparseGrad{Rows: slices.Clone(b.uniq), Grads: g.Clone()}
}

// aggregate sums dOut per unique row of the batch into b.grad, row u holding
// the gradient of b.uniq[u]: each row is summed from zero over the batch's
// occurrences in position order. The scratch is sized to what bounds the
// unique rows of any batch of this size — its occurrences, or the table's
// rows when fewer — so a stream of batches of one size grows it once.
func (b *Bag) aggregate(indices, offsets []int, dOut *tensor.Matrix) *tensor.Matrix {
	validate(b.rows, indices, offsets)
	if dOut.Rows != len(offsets) || dOut.Cols != b.dim {
		panic(fmt.Sprintf("embedding: Backward grad %dx%d want %dx%d", dOut.Rows, dOut.Cols, len(offsets), b.dim))
	}
	bound := min(len(indices), b.rows)
	b.seen.Begin(bound)
	if cap(b.uniq) < bound {
		b.uniq = make([]int, 0, bound)
	}
	b.uniq = b.uniq[:0]
	b.grad = tensor.Reuse(b.grad, bound, b.dim)
	for s := range offsets {
		lo, hi := BagBounds(offsets, s, len(indices))
		src := dOut.Row(s)
		for _, idx := range indices[lo:hi] {
			u, fresh := b.seen.IDOf(idx, len(b.uniq))
			row := b.grad.Row(u)
			if fresh {
				b.uniq = append(b.uniq, idx) // within the capacity reserved above
				clear(row)
			}
			tensor.AddTo(row, src)
		}
	}
	b.grad.Rows, b.grad.Data = len(b.uniq), b.grad.Data[:len(b.uniq)*b.dim]
	return b.grad
}

// Update applies one SGD step for the batch: Weights[r] −= lr·Σ dOut over
// the occurrences of r, with the sums of Backward applied in its row order,
// so the bits are those of applying Backward's gradient row by row.
func (b *Bag) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	g := b.aggregate(indices, offsets, dOut)
	for u, r := range b.uniq {
		tensor.Axpy(-lr, g.Row(u), b.Weights.Row(r))
	}
}

// GatherRows copies the given rows into a fresh len(rows)×dim matrix:
// GatherRowsInto over a new one.
func (b *Bag) GatherRows(rows []int) *tensor.Matrix {
	out := tensor.New(len(rows), b.dim)
	b.GatherRowsInto(out, rows, nil)
	return out
}

// GatherRowsInto copies row rows[k] of the table into dst.Row(at[k]) (into
// dst.Row(k) when at is nil) and leaves dst's other rows alone; the
// parameter server services pre-fetch requests through it into the
// caller's storage.
func (b *Bag) GatherRowsInto(dst *tensor.Matrix, rows, at []int) {
	for k, r := range rows {
		if r < 0 || r >= b.rows {
			panic(fmt.Sprintf("embedding: GatherRows index %d out of range", r))
		}
		to := k
		if at != nil {
			to = at[k]
		}
		copy(dst.Row(to), b.Weights.Row(r))
	}
}

// ScatterAdd adds delta rows into the table at the given row ids; used by
// the parameter server to apply pushed gradients (delta is already −lr·g).
func (b *Bag) ScatterAdd(rows []int, delta *tensor.Matrix) {
	if delta.Rows != len(rows) || delta.Cols != b.dim {
		panic("embedding: ScatterAdd shape mismatch")
	}
	for i, r := range rows {
		tensor.AddTo(b.Weights.Row(r), delta.Row(i))
	}
}
