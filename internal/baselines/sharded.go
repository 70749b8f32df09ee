package baselines

import (
	"fmt"

	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Traffic accumulates the inter-device bytes a sharded table moves.
type Traffic struct {
	ForwardBytes  int64 // embedding exchange in the forward pass
	BackwardBytes int64 // gradient exchange in the backward pass
}

// RowSharded is a HugeCTR-style model-parallel embedding table: rows are
// range-partitioned across n devices. Lookup semantics are identical to a
// single embedding.Bag; every remote row fetched in the forward pass and
// every remote gradient pushed in the backward pass is counted as
// all-to-all traffic.
type RowSharded struct {
	shards     []*embedding.Bag
	boundaries []int // boundaries[d] = first row of shard d
	rows, dim  int
	n          int

	Traffic Traffic
}

var _ dlrm.Table = (*RowSharded)(nil)

// NewRowSharded partitions rows evenly across n devices.
func NewRowSharded(rows, dim, n int, rng *tensor.RNG) (*RowSharded, error) {
	if n <= 0 || rows < n {
		return nil, fmt.Errorf("baselines: cannot shard %d rows across %d devices", rows, n)
	}
	r := &RowSharded{rows: rows, dim: dim, n: n}
	per := (rows + n - 1) / n
	for lo := 0; lo < rows; lo += per {
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		r.boundaries = append(r.boundaries, lo)
		r.shards = append(r.shards, embedding.NewBag(hi-lo, dim, rng))
	}
	return r, nil
}

// shardOf returns (shard id, local row) of a global row.
func (r *RowSharded) shardOf(idx int) (int, int) {
	per := (r.rows + r.n - 1) / r.n
	s := idx / per
	return s, idx - r.boundaries[s]
}

// Lookup performs the sum-pooling lookup, charging all-to-all forward
// traffic for every looked-up row served by a remote shard. HugeCTR's
// model-parallel exchange moves per-sample embeddings (no cross-device
// deduplication); with the batch itself sharded evenly across the same n
// devices, a row is remote with probability (n−1)/n, and we charge that
// expectation over all len(indices) lookups.
func (r *RowSharded) Lookup(indices, offsets []int) *tensor.Matrix {
	out := tensor.New(len(offsets), r.dim)
	for s := range offsets {
		lo := offsets[s]
		hi := len(indices)
		if s+1 < len(offsets) {
			hi = offsets[s+1]
		}
		row := out.Row(s)
		for _, idx := range indices[lo:hi] {
			shard, local := r.shardOf(idx)
			tensor.AddTo(row, r.shards[shard].Weights.Row(local))
		}
	}
	r.Traffic.ForwardBytes += int64(len(indices)) * int64(r.dim) * 4 * int64(r.n-1) / int64(r.n)
	return out
}

// Update applies the sparse SGD update shard by shard, charging the
// symmetric backward gradient exchange.
func (r *RowSharded) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	uniq, inverse := embedding.Unique(indices)
	grads := tensor.New(len(uniq), r.dim)
	for s := range offsets {
		lo := offsets[s]
		hi := len(indices)
		if s+1 < len(offsets) {
			hi = offsets[s+1]
		}
		for p := lo; p < hi; p++ {
			tensor.AddTo(grads.Row(inverse[p]), dOut.Row(s))
		}
	}
	for i, idx := range uniq {
		shard, local := r.shardOf(idx)
		tensor.Axpy(-lr, grads.Row(i), r.shards[shard].Weights.Row(local))
	}
	r.Traffic.BackwardBytes += int64(len(indices)) * int64(r.dim) * 4 * int64(r.n-1) / int64(r.n)
}

// NumRows returns the logical row count.
func (r *RowSharded) NumRows() int { return r.rows }

// Dim returns the embedding dimension.
func (r *RowSharded) Dim() int { return r.dim }

// FootprintBytes returns the summed shard storage (equal to the dense
// table; sharding spreads it, per-device share is FootprintBytes()/n).
func (r *RowSharded) FootprintBytes() int64 { return int64(r.rows) * int64(r.dim) * 4 }

// perDeviceBytes returns the HBM cost per device.
func (r *RowSharded) perDeviceBytes() int64 { return r.FootprintBytes() / int64(r.n) }

// setRow overwrites a logical row (test helper for equivalence checks).
func (r *RowSharded) setRow(idx int, vals []float32) {
	shard, local := r.shardOf(idx)
	copy(r.shards[shard].Weights.Row(local), vals)
}

// rowAt returns a copy of a logical row.
func (r *RowSharded) rowAt(idx int) []float32 {
	shard, local := r.shardOf(idx)
	out := make([]float32, r.dim)
	copy(out, r.shards[shard].Weights.Row(local))
	return out
}

// ColSharded is a TorchRec-style column-wise sharded embedding table: every
// device holds all rows but only dim/n of the columns. Each pooled lookup
// must gather the other devices' column slices (all-gather), and the
// backward pass scatters gradient slices back.
type ColSharded struct {
	shards    []*embedding.Bag // each rows × colWidth(d)
	colStart  []int
	rows, dim int
	n         int

	Traffic Traffic
}

var _ dlrm.Table = (*ColSharded)(nil)

// NewColSharded splits dim columns across n devices.
func NewColSharded(rows, dim, n int, rng *tensor.RNG) (*ColSharded, error) {
	if n <= 0 || dim < n {
		return nil, fmt.Errorf("baselines: cannot shard %d columns across %d devices", dim, n)
	}
	c := &ColSharded{rows: rows, dim: dim, n: n}
	per := (dim + n - 1) / n
	for lo := 0; lo < dim; lo += per {
		hi := lo + per
		if hi > dim {
			hi = dim
		}
		c.colStart = append(c.colStart, lo)
		c.shards = append(c.shards, embedding.NewBag(rows, hi-lo, rng))
	}
	return c, nil
}

// Lookup pools each shard's columns and concatenates, charging the
// all-gather traffic: each device receives the (n−1)/n of every pooled
// vector it does not own.
func (c *ColSharded) Lookup(indices, offsets []int) *tensor.Matrix {
	out := tensor.New(len(offsets), c.dim)
	for sh, bag := range c.shards {
		part := bag.Lookup(indices, offsets)
		start := c.colStart[sh]
		for s := 0; s < part.Rows; s++ {
			copy(out.Row(s)[start:start+part.Cols], part.Row(s))
		}
	}
	c.Traffic.ForwardBytes += int64(len(offsets)) * int64(c.dim) * 4 * int64(c.n-1) / int64(c.n)
	return out
}

// Update splits the pooled gradient by columns and updates each shard,
// charging the symmetric scatter traffic.
func (c *ColSharded) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	for sh, bag := range c.shards {
		start := c.colStart[sh]
		width := bag.Dim()
		part := tensor.New(dOut.Rows, width)
		for s := 0; s < dOut.Rows; s++ {
			copy(part.Row(s), dOut.Row(s)[start:start+width])
		}
		bag.Update(indices, offsets, part, lr)
	}
	c.Traffic.BackwardBytes += int64(dOut.Rows) * int64(c.dim) * 4 * int64(c.n-1) / int64(c.n)
}

// NumRows returns the row count.
func (c *ColSharded) NumRows() int { return c.rows }

// Dim returns the full embedding dimension.
func (c *ColSharded) Dim() int { return c.dim }

// FootprintBytes returns total storage across shards.
func (c *ColSharded) FootprintBytes() int64 { return int64(c.rows) * int64(c.dim) * 4 }

// perDeviceBytes returns the HBM cost per device.
func (c *ColSharded) perDeviceBytes() int64 { return c.FootprintBytes() / int64(c.n) }

// setRow overwrites a logical row across shards (test helper).
func (c *ColSharded) setRow(idx int, vals []float32) {
	for sh, bag := range c.shards {
		start := c.colStart[sh]
		copy(bag.Weights.Row(idx), vals[start:start+bag.Dim()])
	}
}

// rowAt returns a copy of a logical row assembled from the shards.
func (c *ColSharded) rowAt(idx int) []float32 {
	out := make([]float32, c.dim)
	for sh, bag := range c.shards {
		copy(out[c.colStart[sh]:], bag.Weights.Row(idx))
	}
	return out
}
