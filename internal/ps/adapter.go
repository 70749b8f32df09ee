package ps

import (
	"fmt"
	"time"

	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// hostAdapter exposes one host-memory table to the model as a dlrm.Table.
// Lookup pools the pre-fetched (cache-synced) unique rows; Update aggregates
// the pooled gradient per unique row, publishes the post-update values to
// the embedding cache, and leaves the gradient for the pipeline to push.
// Inside a pipeline step both work in the step slab's rows (hostBatch).
//
// Like tt.Table, the adapter owns what Lookup returns: the matrix stays
// valid until the adapter's next Lookup, which overwrites it.
type hostAdapter struct {
	pipeline *Pipeline
	slot     int
	rows     int
	dim      int

	current *hostRows // the step slab's rows of this table; nil outside a pipeline step

	pooled *tensor.Matrix  // Lookup's result, reused by the next Lookup
	seen   embedding.Index // an out-of-step Lookup's dedup
	eval   hostRows        // an out-of-step Lookup's unique and gathered rows, reused by the next one
}

var _ dlrm.Table = (*hostAdapter)(nil)

// Lookup pools the current pre-fetched rows into per-sample embeddings, in
// the adapter-owned result matrix. Outside a pipeline step
// (inference/evaluation) it reads the host table directly under its lock —
// the synchronous path a serving system would take — into adapter-owned
// scratch, so a held-out batch costs no allocation once the scratch has
// grown to the batch.
func (a *hostAdapter) Lookup(indices, offsets []int) *tensor.Matrix {
	cur := a.current
	inStep := cur != nil
	var start time.Time
	if inStep {
		start = a.pipeline.clock.Now()
	} else {
		cur = a.readRows(indices)
	}
	out := tensor.Reuse(a.pooled, len(offsets), a.dim)
	a.pooled = out
	out.Zero()
	for s := range offsets {
		lo, hi := embedding.BagBounds(offsets, s, len(indices))
		row := out.Row(s)
		for _, u := range cur.inverse[lo:hi] {
			tensor.AddTo(row, cur.values.Row(u))
		}
	}
	if inStep {
		a.pipeline.m.adapterNS.Add(int64(obs.Since(a.pipeline.clock, start)))
	}
	return out
}

// readRows deduplicates an out-of-step batch's indices and gathers their
// rows from the store, both into the adapter's eval scratch.
func (a *hostAdapter) readRows(indices []int) *hostRows {
	r := &a.eval
	r.uniq, r.inverse = a.seen.UniqueInto(indices, r.uniq, r.inverse)
	r.values = tensor.ReuseRows(r.values, len(r.uniq), a.dim, len(indices))
	if err := a.pipeline.stores[a.slot].GatherRows(r.uniq, nil, r.values); err != nil {
		// Lookup is a dlrm.Table method and cannot return an error; an
		// unreachable remote store outside a pipeline step surfaces as a
		// typed panic exactly like the adapter-misuse invariant.
		panic(fmt.Errorf("%w: host table %d: %w", errStoreUnavailable, a.slot, err))
	}
	return r
}

// Update aggregates dOut per unique row into the step slab's gradient
// matrix, overwrites the slab's gathered rows with their post-update values
// and publishes those to the cache; the gradient rides the slab to apply.
// Outside a pipeline step it panics with a typed error; the pipeline's
// recover machinery converts that into an errAdapterMisuse-wrapped failure
// instead of a crash.
func (a *hostAdapter) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	cur := a.current
	if cur == nil {
		panic(fmt.Errorf("%w: host table %d updated outside a pipeline step", errAdapterMisuse, a.slot))
	}
	start := a.pipeline.clock.Now()
	grads := tensor.ReuseRows(cur.grads, len(cur.uniq), a.dim, len(indices))
	cur.grads = grads
	grads.Zero()
	for s := range offsets {
		lo, hi := embedding.BagBounds(offsets, s, len(indices))
		for _, u := range cur.inverse[lo:hi] {
			tensor.AddTo(grads.Row(u), dOut.Row(s))
		}
	}
	// publish post-update values: value − lr·grad (the worker's view of the
	// row after this batch; the server applies the same delta to the host).
	// Nothing reads the gathered values after this step's Update, so they
	// take the update in place; publish copies them into the cache.
	tensor.Axpy(-lr, grads.Data, cur.values.Data)
	a.pipeline.caches[a.slot].publish(cur.uniq, cur.values, int(a.pipeline.trained.Load()), cur.nextUse)
	cur.updated = true
	a.pipeline.m.adapterNS.Add(int64(obs.Since(a.pipeline.clock, start)))
}

// NumRows returns the host table's row count.
func (a *hostAdapter) NumRows() int { return a.rows }

// Dim returns the embedding dimension.
func (a *hostAdapter) Dim() int { return a.dim }

// FootprintBytes reports the host-side storage (it does not occupy HBM).
func (a *hostAdapter) FootprintBytes() int64 { return int64(a.rows) * int64(a.dim) * 4 }
