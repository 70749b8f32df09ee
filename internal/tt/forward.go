package tt

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// ForwardCache carries the intermediates of one Forward call into the
// matching Backward call: the batch description, the unique-index structure
// (when deduplication ran), and the reuse buffer of first-two-core products
// (when prefix reuse ran). Every scratch buffer grows to the batch and is
// reused by the next forwardInto on the same cache, so the table-owned arena
// (the Lookup/Update path) allocates nothing in steady state; a cache from
// Forward runs the same code and is simply used once.
type ForwardCache struct {
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
	// is disabled. On a serving clone's arena PrefixBuf aliases the clone's
	// prefix memo.
	PrefixSlots []int
	PrefixBuf   *tensor.Matrix

	// Rows holds the materialized embedding row of each work item
	// (len(WorkIdx) × Dim).
	Rows *tensor.Matrix

	seen       embedding.Index // the one dedup: indices, then prefixes, forward and backward
	workIdxBuf []int
	workOfBuf  []int
	prefixes   []int          // the batch's unique prefixes, sorted by i₂ (batch-local path)
	i2         groups         // their runs per G₂ slice
	g1         *tensor.Matrix // prefix → G₁[i₁], a run's slices stacked into one operand
	out        *tensor.Matrix
	p12        []float32 // serial-path prefix recompute scratch
	workGrad   *tensor.Matrix
	bw         bwScratch   // per-occurrence baseline backward
	tl         twoLevelBwd // two-level backward (InAdvanceAgg)
}

// growInts returns buf resized to n, reusing its storage when it fits. A
// grown buffer gets a quarter more room than n, capped at bound — the
// batch's occurrence count, which bounds every per-batch set (work items,
// prefixes) — so a stream of batches stops growing its scratch after a few
// steps instead of chasing every new high-water mark, while the live set
// stays near what the batches need (a large batch touches far fewer unique
// rows than it has occurrences).
//
//elrec:coldpath amortized scratch growth; steady state reslices in place
func growInts(buf []int, n, bound int) []int {
	if cap(buf) < n {
		return make([]int, n, headroom(n, bound))
	}
	return buf[:n]
}

// reuseRows is tensor.Reuse for an r×c matrix whose row count is bounded by
// bound: grown storage holds headroom(r, bound) rows, as growInts.
//
//elrec:coldpath amortized scratch growth; steady state reslices in place
func reuseRows(m *tensor.Matrix, r, c, bound int) *tensor.Matrix {
	if m == nil || cap(m.Data) < r*c {
		m = tensor.New(headroom(r, bound), c)
	}
	return tensor.Reuse(m, r, c)
}

// headroom is the capacity a per-batch buffer grows to when n elements do
// not fit: n plus a quarter, but never past bound (nor below n).
func headroom(n, bound int) int { return max(n, min(n+n/4, bound)) }

// growFloats returns buf resized to n, reusing its storage when it fits.
//
//elrec:coldpath amortized scratch growth; steady state reslices in place
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
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic("tt: empty offsets")
	}
	if offsets[0] != 0 {
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic(fmt.Sprintf("tt: offsets[0] = %d want 0", offsets[0]))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
			panic(fmt.Sprintf("tt: offsets not monotone at %d", i))
		}
	}
	if offsets[len(offsets)-1] > len(indices) {
		//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
		panic(fmt.Sprintf("tt: last offset %d exceeds %d indices", offsets[len(offsets)-1], len(indices)))
	}
	for p, idx := range indices {
		if idx < 0 || idx >= t.Shape.Rows {
			//elrec:invariant bag layout contract: offsets and indices are validated by the data layer
			panic(fmt.Sprintf("tt: index %d at position %d out of [0,%d)", idx, p, t.Shape.Rows))
		}
	}
}

// Forward computes the sum-pooled embeddings of a batch (batch×Dim) and the
// cache consumed by Backward. The executed path follows t.Opts: with
// DedupIndices each unique row is computed once; with ReusePrefix the
// products of the first two cores are computed once per unique prefix via a
// single batched GEMM over prepared pointer lists (Algorithm 1).
//
// Forward is safe for concurrent use: every call gets a cache of its own.
// The serialized Lookup/Update path runs the same code on the table-owned
// cache instead (see Lookup).
func (t *Table) Forward(indices, offsets []int) (*tensor.Matrix, *ForwardCache) {
	c := &ForwardCache{} //elrec:coldpath fresh cache per call is Forward's contract; the hot path is Lookup's arena
	out := t.forwardInto(c, indices, offsets)
	return out, c
}

// forwardInto runs the forward pass through c, reusing whatever scratch c
// already holds.
func (t *Table) forwardInto(c *ForwardCache, indices, offsets []int) *tensor.Matrix {
	t.validateBatch(indices, offsets)
	c.Indices, c.Offsets = indices, offsets

	if t.Opts.DedupIndices {
		c.WorkIdx, c.WorkOf = c.dedupRows()
	} else {
		c.WorkIdx = indices
		c.WorkOf = nil
	}
	t.met.recordForward(len(indices), len(c.WorkIdx))

	if t.Opts.ReusePrefix {
		t.fillPrefixBuffer(c)
	} else {
		c.PrefixSlots, c.PrefixBuf = nil, nil
	}

	// Materialize one row per work item.
	c.Rows = reuseRows(c.Rows, len(c.WorkIdx), t.Shape.Dim, len(indices))
	prefixScratchSize := 0
	if c.PrefixBuf == nil {
		prefixScratchSize = t.Shape.PrefixSize()
	}
	if serialItems() {
		c.p12 = growFloats(c.p12, prefixScratchSize)
		t.materializeRows(c, c.p12, 0, len(c.WorkIdx))
	} else {
		tensor.ParallelFor(len(c.WorkIdx), func(lo, hi int) {
			var scratch []float32
			if prefixScratchSize > 0 {
				//elrec:coldpath per-chunk prefix scratch only when ReusePrefix is off
				scratch = make([]float32, prefixScratchSize)
			}
			t.materializeRows(c, scratch, lo, hi)
		})
	}

	// Pool work-item rows into per-sample embeddings.
	c.out = tensor.Reuse(c.out, len(offsets), t.Shape.Dim)
	c.out.Zero()
	if serialItems() {
		t.poolRows(c, c.out, 0, len(offsets))
	} else {
		tensor.ParallelFor(len(offsets), func(lo, hi int) {
			t.poolRows(c, c.out, lo, hi)
		})
	}
	return c.out
}

// serialItems reports whether per-item loops should run inline: whenever
// the worker pool is down to one executor, so the hot path skips closure and
// dispatch costs entirely.
func serialItems() bool { return tensor.Workers() <= 1 }

// materializeRows computes embedding rows for work items [lo,hi). scratch
// holds one prefix product when no reuse buffer is available.
func (t *Table) materializeRows(c *ForwardCache, scratch []float32, lo, hi int) {
	for w := lo; w < hi; w++ {
		i1, i2, i3 := t.Shape.FactorIndex(c.WorkIdx[w])
		p12 := scratch
		if c.PrefixBuf != nil {
			p12 = c.PrefixBuf.Row(c.PrefixSlots[w])
		} else {
			t.computePrefix(i1, i2, p12)
		}
		t.rowFromPrefix(p12, i3, c.Rows.Row(w))
	}
}

// poolRows sum-pools work-item rows into samples [lo,hi) of out.
func (t *Table) poolRows(c *ForwardCache, out *tensor.Matrix, lo, hi int) {
	for s := lo; s < hi; s++ {
		start, end := embedding.BagBounds(c.Offsets, s, len(c.Indices))
		row := out.Row(s)
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
func (c *ForwardCache) dedupRows() (workIdx, workOf []int) {
	c.seen.Begin(len(c.Indices))
	c.workIdxBuf = growInts(c.workIdxBuf, len(c.Indices), 0)[:0]
	c.workOfBuf = growInts(c.workOfBuf, len(c.Indices), 0)
	for p, idx := range c.Indices {
		u, fresh := c.seen.IDOf(idx, len(c.workIdxBuf))
		if fresh {
			//elrec:coldpath never grows: the capacity reserved above is the batch's occurrence count
			c.workIdxBuf = append(c.workIdxBuf, idx)
		}
		c.workOfBuf[p] = u
	}
	return c.workIdxBuf, c.workOfBuf
}

// fillPrefixBuffer populates the reuse buffer of first-two-core products for
// the batch's work items. One fact selects the path: the serialized arena
// Lookup of a serving clone — whose cores never change — resolves prefixes
// against the clone's cross-batch memo; everything else (every trainable
// table, and any table's concurrent-safe Forward) computes the batch's own
// unique prefixes.
func (t *Table) fillPrefixBuffer(c *ForwardCache) {
	c.PrefixSlots = growInts(c.PrefixSlots, len(c.WorkIdx), len(c.Indices))
	if m := t.memo; m != nil && m.slotOf != nil && c == t.arena {
		t.fillFromMemo(c, m)
		return
	}
	t.fillPrefixBatchLocal(c)
}

// fillPrefixBatchLocal is Algorithm 1: it deduplicates the prefixes of the
// work items (Buf_flag/Buf_idx) and computes every unique prefix of the batch
// into the batch-local reuse buffer. The batched GEMM is stacked per G₂
// slice: the prefixes are sorted by i₂, so the buffer rows of one slice are
// contiguous and take one product [G₁[i₁(u)]]·G₂[i₂] with the run's G₁ slices
// stacked as the A operand — G₂[i₂], the one operand outside the cache,
// streams once per slice instead of once per prefix, and each buffer row has
// the bits of its own n₁-row product (m-independence, DESIGN.md §12).
func (t *Table) fillPrefixBatchLocal(c *ForwardCache) {
	c.prefixes = t.dedupPrefixes(c, c.WorkIdx, c.PrefixSlots, c.prefixes)
	m2 := t.Shape.RowFactors[1]
	c.i2.sortByI2(m2, c.prefixes, c.PrefixSlots, len(c.Indices))

	c.PrefixBuf = reuseRows(c.PrefixBuf, len(c.prefixes), t.Shape.PrefixSize(), len(c.Indices))
	c.g1 = reuseRows(c.g1, len(c.prefixes), t.Shape.SliceSizes()[0], len(c.Indices))
	if tensor.Parallel(len(c.prefixes) * t.Shape.R1 * t.Shape.PrefixSize()) {
		// Executor p owns the slices i₂ ≡ p (mod parts), as in the backward.
		parts := min(tensor.Workers(), m2)
		tensor.ParallelFor(parts, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				t.fillSlices(c, p, parts)
			}
		})
	} else {
		t.fillSlices(c, 0, 1)
	}
	t.met.recordPrefix(len(c.WorkIdx), len(c.prefixes))
}

// fillSlices computes the reuse-buffer rows of the prefixes of i₂ = first,
// first+stride, …; it owns those rows of PrefixBuf and g1.
func (t *Table) fillSlices(c *ForwardCache, first, stride int) {
	n := t.Shape.ColFactors
	sz0, psz := c.g1.Cols, c.PrefixBuf.Cols
	for i2 := first; i2 < t.Shape.RowFactors[1]; i2 += stride {
		lo, hi := c.i2.start[i2], c.i2.start[i2+1]
		if lo == hi {
			continue
		}
		g1 := c.g1.Data[lo*sz0 : hi*sz0]
		t.stackG1(g1, c.prefixes[lo:hi])
		tensor.GemmInto((hi-lo)*n[0], t.Shape.R1, n[1]*t.Shape.R2, g1, t.Slice2(i2), c.PrefixBuf.Data[lo*psz:hi*psz])
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
func (t *Table) dedupPrefixes(c *ForwardCache, workIdx, ids, prefixes []int) []int {
	c.seen.Begin(len(workIdx))
	prefixes = growInts(prefixes, len(workIdx), len(c.Indices))[:0]
	for w, idx := range workIdx {
		pfx := t.Shape.Prefix(idx)
		u, fresh := c.seen.IDOf(pfx, len(prefixes))
		if fresh {
			//elrec:coldpath never grows: the capacity reserved above holds a prefix per work item
			prefixes = append(prefixes, pfx)
		}
		ids[w] = u
	}
	return prefixes
}
