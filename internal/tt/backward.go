package tt

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// bwScratch holds one part's intermediates of a work item of the
// per-occurrence baseline backward.
type bwScratch struct {
	p12, dP12, dG1, dG2, dG3 []float32
}

func (s *bwScratch) ensure(t *Table) {
	sz := t.Shape.sliceSizes()
	s.p12 = growFloats(s.p12, t.Shape.prefixSize())
	s.dP12 = growFloats(s.dP12, t.Shape.prefixSize())
	s.dG1 = growFloats(s.dG1, sz[0])
	s.dG2 = growFloats(s.dG2, sz[1])
	s.dG3 = growFloats(s.dG3, sz[2])
}

// backward computes TT-core gradients for the batch described by cache and
// applies the update with learning rate lr. The executed path follows
// t.Opts:
//
//   - InAdvanceAgg aggregates at both reuse levels of the forward pass: dOut
//     is summed into one gradient row per unique index (Figure 6(b)) and the
//     rank-sized core contractions run once per unique (i₁,i₂) prefix (see
//     backwardTwoLevel). Otherwise every occurrence of every index runs the
//     full chain-rule multiplications (Figure 6(a), TT-Rec behaviour).
//   - FusedUpdate applies −lr·grad to core slices inside the same pass;
//     otherwise gradients land in full core-sized buffers and a separate
//     optimizer sweep updates the cores (extra memory traffic, exactly the
//     cost the fused kernel removes).
//
// dOut is the gradient of the loss w.r.t. the pooled batch output
// (batch×Dim).
func (t *Table) backward(cache *forwardCache, dOut *tensor.Matrix, lr float32) {
	if t.readOnly {
		panic("tt: Backward on a serving clone: serving clones are read-only; train the source and re-clone")
	}
	if cache == nil {
		panic("tt: Backward with nil cache")
	}
	if dOut.Rows != len(cache.Offsets) || dOut.Cols != t.Shape.Dim {
		panic(fmt.Sprintf("tt: Backward grad %dx%d want %dx%d", dOut.Rows, dOut.Cols, len(cache.Offsets), t.Shape.Dim))
	}

	cache.gradBufs, cache.lr = [Dims]*tensor.Matrix{}, lr
	if !t.Opts.FusedUpdate {
		cache.gradBufs = t.gradBuffers()
	}
	if t.Opts.InAdvanceAgg {
		t.backwardTwoLevel(cache, dOut)
	} else {
		t.backwardPerOccurrence(cache, dOut)
	}

	if !t.Opts.FusedUpdate {
		// Separate optimizer sweep over the full core buffers: the extra
		// read-modify-write traffic the fused path avoids.
		if t.AdagradEnabled() {
			t.adagradSweep(cache.gradBufs, lr)
		} else {
			for k := 0; k < Dims; k++ {
				tensor.Axpy(-lr, cache.gradBufs[k].Data, t.Cores[k].Data)
			}
		}
	}
}

// backwardPerOccurrence is the TT-Rec baseline of Figures 14/17/18: one full
// chain per index occurrence, the occurrences split into parts over the
// executors, each with its own scratch, and shared slices updated hogwild
// under stripe locks (the paper's kernel uses atomics). Only a single
// executor makes it reproducible.
func (t *Table) backwardPerOccurrence(cache *forwardCache, dOut *tensor.Matrix) {
	t.perOccurrenceGrads(cache, dOut)
	items := len(cache.Indices)
	t.met.recordBackward(items, items, items)
	cache.parts = min(tensor.Workers(), items)
	if len(cache.bw) < cache.parts {
		cache.bw = append(cache.bw, make([]bwScratch, cache.parts-len(cache.bw))...)
	}
	for p := range cache.parts {
		cache.bw[p].ensure(t)
	}
	tensor.ParallelFor(cache.parts, cache, backwardRange)
}

// backwardRange is a ParallelFor body over a *forwardCache: part p of
// [lo,hi) runs the chain-rule multiplications and the core update for its
// index occurrences in its own scratch.
func backwardRange(ctx any, lo, hi int) {
	c := ctx.(*forwardCache)
	t := c.t
	n := t.Shape.ColFactors
	r1, r2 := t.Shape.R1, t.Shape.R2
	for part := lo; part < hi; part++ {
		s := &c.bw[part]
		first, end := c.part(part, len(c.Indices))
		for p := first; p < end; p++ {
			g := c.workGrad.Row(p)
			i1, i2, i3 := t.Shape.factorIndex(c.Indices[p])

			// Fetch or recompute the forward intermediate P₁₂.
			pref := s.p12
			if c.PrefixBuf == nil {
				t.computePrefix(i1, i2, pref)
			} else {
				fw := p // forward work item of occurrence p
				if c.WorkOf != nil {
					fw = c.WorkOf[p]
				}
				pref = c.PrefixBuf.Row(c.PrefixSlots[fw])
			}

			// dG₃[i₃] = P₁₂ᵀ · g   (R₂ × n₃), P₁₂ viewed as n₁n₂ × R₂.
			clear(s.dG3)
			tensor.GemmTransAAddInto(r2, n[0]*n[1], n[2], 1, pref, g, s.dG3)
			// dP₁₂ = g · G₃[i₃]ᵀ   (n₁n₂ × R₂).
			clear(s.dP12)
			tensor.GemmTransBAddInto(n[0]*n[1], n[2], r2, g, t.Slice3(i3), s.dP12)
			// dG₂[i₂] = G₁[i₁]ᵀ · dP₁₂  (R₁ × n₂R₂), dP₁₂ viewed as n₁ × n₂R₂.
			clear(s.dG2)
			tensor.GemmTransAAddInto(r1, n[0], n[1]*r2, 1, t.Slice1(i1), s.dP12, s.dG2)
			// dG₁[i₁] = dP₁₂ · G₂[i₂]ᵀ  (n₁ × R₁).
			clear(s.dG1)
			tensor.GemmTransBAddInto(n[0], n[1]*r2, r1, s.dP12, t.Slice2(i2), s.dG1)

			t.sinkLocked(c, 0, i1, s.dG1)
			t.sinkLocked(c, 1, i2, s.dG2)
			t.sinkLocked(c, 2, i3, s.dG3)
		}
	}
}

// sinkLocked is sinkGrad under the row's stripe lock, for the baseline's
// executors that share slices.
func (t *Table) sinkLocked(c *forwardCache, k, row int, grad []float32) {
	mu := t.lockFor(k, row)
	mu.Lock()
	t.sinkGrad(c, k, row, grad)
	mu.Unlock()
}

// sinkGrad delivers a gradient for slice row of core k: the optimizer apply
// on the core itself when the update is fused (c.gradBufs[k] nil), an add
// into the gradient-buffer row the optimizer sweep reads otherwise. The
// caller owns the slice while it runs.
func (t *Table) sinkGrad(c *forwardCache, k, row int, grad []float32) {
	if buf := c.gradBufs[k]; buf != nil {
		tensor.AddTo(buf.Row(row), grad)
		return
	}
	t.applyGradSlice(k, row, grad, c.lr)
}

// aggregateGrads computes one aggregated gradient row per unique index of
// the batch (in-advance gradient aggregation) into cache.workGrad and
// returns the unique indices and the occurrence→unique map. When the forward
// pass already deduplicated, its unique structure is reused; otherwise it is
// built here. The gradient matrix lives in the cache arena, so steady-state
// batches reuse its storage.
func (t *Table) aggregateGrads(cache *forwardCache, dOut *tensor.Matrix) ([]int, []int) {
	workIdx, workOf := cache.WorkIdx, cache.WorkOf
	if !t.Opts.DedupIndices {
		workIdx, workOf = cache.dedupRows()
	}
	cache.workGrad = tensor.ReuseRows(cache.workGrad, len(workIdx), t.Shape.Dim, len(cache.Indices))
	grads := cache.workGrad
	grads.Zero()
	for s := range cache.Offsets {
		start, end := embedding.BagBounds(cache.Offsets, s, len(cache.Indices))
		src := dOut.Row(s)
		for p := start; p < end; p++ {
			tensor.AddTo(grads.Row(workOf[p]), src)
		}
	}
	return workIdx, workOf
}

// perOccurrenceGrads materializes one gradient row per index occurrence
// (no aggregation): occurrence p of sample s receives a copy of dOut[s].
// The copy is the point — TT-Rec stores per-row gradients before reducing.
func (t *Table) perOccurrenceGrads(cache *forwardCache, dOut *tensor.Matrix) {
	cache.workGrad = tensor.Reuse(cache.workGrad, len(cache.Indices), t.Shape.Dim)
	for s := range cache.Offsets {
		start, end := embedding.BagBounds(cache.Offsets, s, len(cache.Indices))
		for p := start; p < end; p++ {
			copy(cache.workGrad.Row(p), dOut.Row(s))
		}
	}
}

// Lookup runs the forward pass through the table-owned arena cache and
// retains it for a following Update call, satisfying the embedding-table
// interface the DLRM model consumes. It is the table's one forward entry.
// It reuses every intermediate across batches — including the returned
// matrix, which is only valid until the next Lookup on this table — making
// steady-state training steps allocation-free.
func (t *Table) Lookup(indices, offsets []int) *tensor.Matrix {
	if t.arena == nil {
		t.arena = &forwardCache{}
	}
	out := t.forwardInto(t.arena, indices, offsets)
	t.lastCache = t.arena
	return out
}

// Update applies gradients for the most recent Lookup batch. The batch
// description must match that Lookup call; if it does not (or no Lookup ran)
// the forward pass is run again for the batch given here.
func (t *Table) Update(indices, offsets []int, dOut *tensor.Matrix, lr float32) {
	if t.lastCache == nil || !sameBatch(t.lastCache, indices, offsets) {
		t.Lookup(indices, offsets)
	}
	cache := t.lastCache
	t.lastCache = nil
	t.backward(cache, dOut, lr)
}

func sameBatch(c *forwardCache, indices, offsets []int) bool {
	if len(c.Indices) != len(indices) || len(c.Offsets) != len(offsets) {
		return false
	}
	for i := range indices {
		if c.Indices[i] != indices[i] {
			return false
		}
	}
	for i := range offsets {
		if c.Offsets[i] != offsets[i] {
			return false
		}
	}
	return true
}
