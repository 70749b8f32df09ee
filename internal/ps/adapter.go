package ps

import (
	"fmt"

	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// hostAdapter exposes one host-memory table to the model as a dlrm.Table.
// Lookup pools the pre-fetched (cache-synced) unique rows; Update aggregates
// the pooled gradient per unique row, publishes the post-update values to
// the embedding cache, and leaves the gradient for the pipeline to push.
//
// Like tt.Table, the adapter owns what Lookup returns: the matrix stays
// valid until the adapter's next Lookup, which overwrites it.
type hostAdapter struct {
	pipeline *Pipeline
	slot     int
	rows     int
	dim      int
	lr       float32

	current *hostRows
	pending *gradRows

	pooled  *tensor.Matrix // Lookup's result, reused by the next Lookup
	updated *tensor.Matrix // Update's post-update rows, staged for Cache.Publish
}

var _ dlrm.Table = (*hostAdapter)(nil)

// Lookup pools the current pre-fetched rows into per-sample embeddings, in
// the adapter-owned result matrix. Outside a pipeline step
// (inference/evaluation) it reads the host table directly under its lock —
// the synchronous path a serving system would take.
func (a *hostAdapter) Lookup(indices, offsets []int) *tensor.Matrix {
	cur := a.current
	if cur == nil {
		uniq, inverse := embedding.Unique(indices)
		values, err := a.pipeline.stores[a.slot].GatherRows(uniq)
		if err != nil {
			// Lookup is a dlrm.Table method and cannot return an error; an
			// unreachable remote store outside a pipeline step surfaces as a
			// typed panic exactly like the adapter-misuse invariant.
			//elrec:invariant typed ErrStoreUnavailable panic: synchronous lookups have no error channel; pipeline steps never take this path
			panic(fmt.Errorf("%w: host table %d: %w", ErrStoreUnavailable, a.slot, err))
		}
		cur = &hostRows{uniq: uniq, inverse: inverse, values: values}
	} else {
		start := a.pipeline.clock.Now()
		defer func() {
			a.pipeline.m.adapterNS.Add(int64(obs.Since(a.pipeline.clock, start)))
		}()
	}
	out := tensor.Reuse(a.pooled, len(offsets), a.dim)
	a.pooled = out
	out.Zero()
	for s := range offsets {
		start := offsets[s]
		end := len(indices)
		if s+1 < len(offsets) {
			end = offsets[s+1]
		}
		row := out.Row(s)
		for pos := start; pos < end; pos++ {
			tensor.AddTo(row, cur.values.Row(cur.inverse[pos]))
		}
	}
	return out
}

// Update aggregates dOut per unique row, publishes updated values to the
// cache, and stages the gradient push. Outside a pipeline step it panics
// with a typed error; the pipeline's recover machinery converts that into
// an ErrAdapterMisuse-wrapped failure instead of a crash.
func (a *hostAdapter) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	cur := a.current
	if cur == nil {
		//elrec:invariant typed ErrAdapterMisuse panic: the pipeline recover boundary converts it to an error
		panic(fmt.Errorf("%w: host table %d updated outside a pipeline step", ErrAdapterMisuse, a.slot))
	}
	start := a.pipeline.clock.Now()
	defer func() {
		a.pipeline.m.adapterNS.Add(int64(obs.Since(a.pipeline.clock, start)))
	}()
	grads := tensor.New(len(cur.uniq), a.dim)
	for s := range offsets {
		start := offsets[s]
		end := len(indices)
		if s+1 < len(offsets) {
			end = offsets[s+1]
		}
		for pos := start; pos < end; pos++ {
			tensor.AddTo(grads.Row(cur.inverse[pos]), dOut.Row(s))
		}
	}
	// Publish post-update values: value − lr·grad (the worker's view of the
	// row after this batch; the server applies the same delta to the host).
	// Publish copies the rows, so the staging matrix is reused; grads is not:
	// it rides the gradient queue to apply, which scales it into the delta.
	updated := tensor.Reuse(a.updated, len(cur.uniq), a.dim)
	a.updated = updated
	copy(updated.Data, cur.values.Data)
	tensor.Axpy(-lr, grads.Data, updated.Data)
	a.pipeline.caches[a.slot].Publish(cur.uniq, updated, int(a.pipeline.trained.Load()), cur.nextUse)
	a.pending = &gradRows{uniq: cur.uniq, grads: grads}
}

// NumRows returns the host table's row count.
func (a *hostAdapter) NumRows() int { return a.rows }

// Dim returns the embedding dimension.
func (a *hostAdapter) Dim() int { return a.dim }

// FootprintBytes reports the host-side storage (it does not occupy HBM).
func (a *hostAdapter) FootprintBytes() int64 { return int64(a.rows) * int64(a.dim) * 4 }
