package serve

import (
	"repro/internal/data"
	"repro/internal/tensor"
)

// Batcher builds the replicated scoring batch — one context copied across
// its candidates — into reusable scratch. Serving no longer scores through
// it (Ranker.Score and served.Pool run dlrm.Model.ScoreGroups, which computes
// the context side once); it stays exported as the oracle that path is held
// bit-identical to: Predict(Build(ctx, chunk)) is what the equivalence tests
// and the benchmark's traced replay compare served scores against. A Batcher
// is owned by one goroutine at a time, and the batch it returns aliases its
// scratch — valid only until the next Build call.
type Batcher struct {
	itemFeature int
	dense       *tensor.Matrix
	sparse      [][]int
	offsets     []int
	labels      []float32
	batch       data.Batch
}

// NewBatcher returns a batch builder bound to the ranker's item feature.
func (r *Ranker) NewBatcher() *Batcher {
	return &Batcher{itemFeature: r.itemFeature}
}

// prepare resizes the scratch to n rows over numDense dense and numTables
// sparse features, reusing prior capacity.
func (b *Batcher) prepare(n, numDense, numTables int) *data.Batch {
	b.dense = tensor.Reuse(b.dense, n, numDense)
	if cap(b.offsets) < n {
		b.offsets = make([]int, n)
		b.labels = make([]float32, n)
	}
	b.offsets = b.offsets[:n]
	b.labels = b.labels[:n]
	for len(b.sparse) < numTables {
		b.sparse = append(b.sparse, nil)
	}
	b.sparse = b.sparse[:numTables]
	for t := range b.sparse {
		if cap(b.sparse[t]) < n {
			b.sparse[t] = make([]int, n)
		}
		b.sparse[t] = b.sparse[t][:n]
	}
	for s := 0; s < n; s++ {
		b.offsets[s] = s
		b.labels[s] = 0
	}
	b.batch = data.Batch{Dense: b.dense, Sparse: b.sparse, Offsets: b.offsets, Labels: b.labels}
	return &b.batch
}

// Build replicates ctx across len(candidates) rows, varying the item
// feature.
func (b *Batcher) Build(ctx Context, candidates []int) *data.Batch {
	n := len(candidates)
	out := b.prepare(n, len(ctx.Dense), len(ctx.Sparse))
	for s := 0; s < n; s++ {
		copy(out.Dense.Row(s), ctx.Dense)
	}
	for t := range ctx.Sparse {
		col := out.Sparse[t]
		if t == b.itemFeature {
			copy(col, candidates)
		} else {
			v := ctx.Sparse[t]
			for s := 0; s < n; s++ {
				col[s] = v
			}
		}
	}
	return out
}
