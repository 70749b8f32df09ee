package tt

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// forwardCache carries the intermediates of one forward call into the
// matching backward call: the batch description, the unique-index structure
// (when deduplication ran), and the reuse buffer of first-two-core products
// (when prefix reuse ran). A table owns one, its arena: every scratch buffer
// grows to the batch and is reused by the next Lookup, so steady-state
// Lookup/Update allocates nothing.
type forwardCache struct {
	Indices []int
	Offsets []int

	// WorkIdx[w] is the embedding index of work item w; WorkOf[p] maps
	// occurrence p to its work item. With deduplication WorkIdx is the
	// unique index list; without it WorkIdx aliases Indices and WorkOf is
	// nil, meaning the identity mapping (occurrence p is work item p).
	WorkIdx []int
	WorkOf  []int

	// PrefixSlots[w] is the reuse-buffer row of work item w; PrefixBuf row
	// s holds the n₁×(n₂R₂) product for that prefix. Nil when prefix reuse
	// is disabled.
	PrefixSlots []int
	PrefixBuf   *tensor.Matrix

	// Rows holds the materialized embedding row of each work item
	// (len(WorkIdx) × Dim).
	Rows *tensor.Matrix

	seen       embedding.Index // the one dedup: indices, then prefixes, forward and backward
	workIdxBuf []int
	workOfBuf  []int
	prefixes   []int          // the batch's unique prefixes, sorted by i₂
	i2         groups         // their runs per G₂ slice
	g1         *tensor.Matrix // prefix → G₁[i₁], a run's slices stacked into one operand
	out        *tensor.Matrix
	workGrad   *tensor.Matrix
	tl         twoLevelBwd // two-level backward (InAdvanceAgg)

	// The running pass's dispatch state: tensor.ParallelFor hands its bodies
	// the cache, and they find here the table, the executors the current
	// phase is split over, each part's scratch and the backward's sinks.
	t        *Table
	parts    int
	p12      []float32   // one prefix recompute row per part, when there is no reuse buffer
	bw       []bwScratch // per part, of the per-occurrence baseline backward
	gradBufs [Dims]*tensor.Matrix
	lr       float32
}

// part returns the range [lo,hi) of n items that part p of c.parts owns.
func (c *forwardCache) part(p, n int) (lo, hi int) {
	return p * n / c.parts, (p + 1) * n / c.parts
}

// growInts returns buf resized to n, reusing its storage when it fits. A
// grown buffer gets tensor.Headroom: a quarter more room than n, capped at
// bound — the batch's occurrence count, which bounds every per-batch set
// (work items, prefixes) — so a stream of batches stops growing its scratch
// after a few steps, while the live set stays near what the batches need (a
// large batch touches far fewer unique rows than it has occurrences).
// Matrices grow by the same rule through tensor.ReuseRows.
func growInts(buf []int, n, bound int) []int {
	if cap(buf) < n {
		return make([]int, n, tensor.Headroom(n, bound))
	}
	return buf[:n]
}

// growFloats returns buf resized to n, reusing its storage when it fits.
func growFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// validateBatch panics when a batch description is malformed, mirroring
// embedding.Bag's validation.
func (t *Table) validateBatch(indices, offsets []int) {
	if len(offsets) == 0 {
		panic("tt: empty offsets")
	}
	if offsets[0] != 0 {
		panic(fmt.Sprintf("tt: offsets[0] = %d want 0", offsets[0]))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			panic(fmt.Sprintf("tt: offsets not monotone at %d", i))
		}
	}
	if offsets[len(offsets)-1] > len(indices) {
		panic(fmt.Sprintf("tt: last offset %d exceeds %d indices", offsets[len(offsets)-1], len(indices)))
	}
	for p, idx := range indices {
		if idx < 0 || idx >= t.Shape.Rows {
			panic(fmt.Sprintf("tt: index %d at position %d out of [0,%d)", idx, p, t.Shape.Rows))
		}
	}
}

// forwardInto computes the sum-pooled embeddings of a batch (batch×Dim)
// through c, reusing whatever scratch c already holds. The executed path
// follows t.Opts: with DedupIndices each unique row is computed once; with
// ReusePrefix the products of the first two cores are computed once per
// unique prefix (Algorithm 1).
func (t *Table) forwardInto(c *forwardCache, indices, offsets []int) *tensor.Matrix {
	t.validateBatch(indices, offsets)
	c.t, c.Indices, c.Offsets = t, indices, offsets

	if t.Opts.DedupIndices {
		c.WorkIdx, c.WorkOf = c.dedupRows()
	} else {
		c.WorkIdx = indices
		c.WorkOf = nil
	}
	t.met.recordForward(len(indices), len(c.WorkIdx))

	if t.Opts.ReusePrefix {
		t.fillPrefixBatchLocal(c)
	} else {
		c.PrefixSlots, c.PrefixBuf = nil, nil
	}

	// Materialize one row per work item, the items split into parts that
	// each own a row of prefix scratch when there is no reuse buffer.
	c.Rows = tensor.ReuseRows(c.Rows, len(c.WorkIdx), t.Shape.Dim, len(indices))
	c.parts = min(tensor.Workers(), len(c.WorkIdx))
	if c.PrefixBuf == nil {
		c.p12 = growFloats(c.p12, c.parts*t.Shape.prefixSize())
	}
	tensor.ParallelFor(c.parts, c, materializeRows)

	// Pool work-item rows into per-sample embeddings.
	c.out = tensor.Reuse(c.out, len(offsets), t.Shape.Dim)
	c.out.Zero()
	tensor.ParallelFor(len(offsets), c, poolRows)
	return c.out
}

// materializeRows is a ParallelFor body over a *forwardCache: it computes
// the embedding rows of the work items of parts [lo,hi), each part
// recomputing prefixes in its own p12 row when there is no reuse buffer.
func materializeRows(ctx any, lo, hi int) {
	c := ctx.(*forwardCache)
	t := c.t
	psz := t.Shape.prefixSize()
	for p := lo; p < hi; p++ {
		first, end := c.part(p, len(c.WorkIdx))
		for w := first; w < end; w++ {
			i1, i2, i3 := t.Shape.factorIndex(c.WorkIdx[w])
			var p12 []float32
			if c.PrefixBuf != nil {
				p12 = c.PrefixBuf.Row(c.PrefixSlots[w])
			} else {
				p12 = c.p12[p*psz : (p+1)*psz]
				t.computePrefix(i1, i2, p12)
			}
			t.rowFromPrefix(p12, i3, c.Rows.Row(w))
		}
	}
}

// poolRows is a ParallelFor body over a *forwardCache: it sum-pools
// work-item rows into samples [lo,hi) of the output.
func poolRows(ctx any, lo, hi int) {
	c := ctx.(*forwardCache)
	for s := lo; s < hi; s++ {
		start, end := embedding.BagBounds(c.Offsets, s, len(c.Indices))
		row := c.out.Row(s)
		if c.WorkOf == nil {
			for p := start; p < end; p++ {
				tensor.AddTo(row, c.Rows.Row(p))
			}
		} else {
			for p := start; p < end; p++ {
				tensor.AddTo(row, c.Rows.Row(c.WorkOf[p]))
			}
		}
	}
}

// dedupRows returns the batch's unique indices in first-occurrence order and
// the occurrence → unique-position map, in c's buffers. The forward runs it
// under DedupIndices; the backward's in-advance aggregation runs it when the
// forward did not.
func (c *forwardCache) dedupRows() (workIdx, workOf []int) {
	c.seen.Begin(len(c.Indices))
	c.workIdxBuf = growInts(c.workIdxBuf, len(c.Indices), 0)[:0]
	c.workOfBuf = growInts(c.workOfBuf, len(c.Indices), 0)
	for p, idx := range c.Indices {
		u, fresh := c.seen.IDOf(idx, len(c.workIdxBuf))
		if fresh {
			c.workIdxBuf = append(c.workIdxBuf, idx)
		}
		c.workOfBuf[p] = u
	}
	return c.workIdxBuf, c.workOfBuf
}

// fillPrefixBatchLocal is Algorithm 1: it deduplicates the prefixes of the
// work items (Buf_flag/Buf_idx) and computes every unique prefix of the batch
// into the batch-local reuse buffer. The batched GEMM is stacked per G₂
// slice: the prefixes are sorted by i₂, so the buffer rows of one slice are
// contiguous and take one product [G₁[i₁(u)]]·G₂[i₂] with the run's G₁ slices
// stacked as the A operand — G₂[i₂], the one operand outside the cache,
// streams once per slice instead of once per prefix, and each buffer row has
// the bits of its own n₁-row product (m-independence, DESIGN.md §12).
func (t *Table) fillPrefixBatchLocal(c *forwardCache) {
	c.PrefixSlots = growInts(c.PrefixSlots, len(c.WorkIdx), len(c.Indices))
	c.prefixes = t.dedupPrefixes(c, c.WorkIdx, c.PrefixSlots, c.prefixes)
	m2 := t.Shape.RowFactors[1]
	c.i2.sortByI2(m2, c.prefixes, c.PrefixSlots, len(c.Indices))

	c.PrefixBuf = tensor.ReuseRows(c.PrefixBuf, len(c.prefixes), t.Shape.prefixSize(), len(c.Indices))
	c.g1 = tensor.ReuseRows(c.g1, len(c.prefixes), t.Shape.sliceSizes()[0], len(c.Indices))
	// Part p owns the slices i₂ ≡ p (mod parts), as in the backward.
	c.parts = 1
	if tensor.Parallel(len(c.prefixes) * t.Shape.R1 * t.Shape.prefixSize()) {
		c.parts = min(tensor.Workers(), m2)
	}
	tensor.ParallelFor(c.parts, c, fillSlices)
	t.met.recordPrefix(len(c.WorkIdx), len(c.prefixes))
}

// fillSlices is a ParallelFor body over a *forwardCache: part p of [lo,hi)
// computes the reuse-buffer rows of the prefixes of i₂ = p, p+parts, …; it
// owns those rows of PrefixBuf and g1. It walks the batch's runs, not all m₂
// slices: a lookup of a few indices touches a few slices, and at serving's
// batch sizes a scan of every slice cost about as much as the products.
func fillSlices(ctx any, lo, hi int) {
	c := ctx.(*forwardCache)
	t := c.t
	n, m2 := t.Shape.ColFactors, t.Shape.RowFactors[1]
	sz0, psz := c.g1.Cols, c.PrefixBuf.Cols
	for p := lo; p < hi; p++ {
		for first, end := 0, 0; first < len(c.prefixes); first = end {
			i2 := c.prefixes[first] % m2
			end = c.i2.start[i2+1]
			if i2%c.parts != p {
				continue
			}
			g1 := c.g1.Data[first*sz0 : end*sz0]
			t.stackG1(g1, c.prefixes[first:end])
			tensor.GemmInto((end-first)*n[0], t.Shape.R1, n[1]*t.Shape.R2, g1, t.Slice2(i2), c.PrefixBuf.Data[first*psz:end*psz])
		}
	}
}

// stackG1 copies G₁[i₁] of each listed prefix into consecutive rows of dst.
func (t *Table) stackG1(dst []float32, prefixes []int) {
	m2 := t.Shape.RowFactors[1]
	for i, pfx := range prefixes {
		g := t.Slice1(pfx / m2)
		copy(dst[i*len(g):], g)
	}
}

// dedupPrefixes writes into ids[w] the batch-local dense id of work item w's
// prefix, ids being handed out in first-occurrence order (Algorithm 1's
// Buf_flag/Buf_idx), and returns the unique prefixes in prefixes' storage,
// grown as growInts grows it. The forward's batch-local reuse buffer and the
// two-level backward share it.
func (t *Table) dedupPrefixes(c *forwardCache, workIdx, ids, prefixes []int) []int {
	c.seen.Begin(len(workIdx))
	prefixes = growInts(prefixes, len(workIdx), len(c.Indices))[:0]
	for w, idx := range workIdx {
		pfx := t.Shape.prefix(idx)
		u, fresh := c.seen.IDOf(pfx, len(prefixes))
		if fresh {
			prefixes = append(prefixes, pfx)
		}
		ids[w] = u
	}
	return prefixes
}
