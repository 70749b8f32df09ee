package tt

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// ForwardCache carries the intermediates of one Forward call into the
// matching Backward call: the batch description, the unique-index structure
// (when deduplication ran), and the reuse buffer of first-two-core products
// (when prefix reuse ran). A table-owned arena cache (the Lookup/Update
// path) additionally keeps every scratch buffer alive across batches so
// steady-state training steps allocate nothing.
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

	// arena marks a table-owned cache reused across batches. Fresh caches
	// (the concurrent-safe Forward path) leave every scratch field nil and
	// simply allocate.
	arena bool

	// seq stamps the dense dedup scratch below: an entry equals seq iff it
	// was written during the current batch, so the arrays never need a
	// per-batch reset (or reallocation) once grown.
	seq      int64
	rowStamp []int64 // rowStamp[idx] == seq: idx already has a work item
	rowSlot  []int32 // its work-item position when stamped
	pfxStamp []int64 // same scheme over prefixes (batch-local buffer path)
	pfxSlot  []int32

	workIdxBuf []int
	workOfBuf  []int
	prefixes   []int              // the batch's unique prefixes, sorted by i₂ (batch-local path)
	i2         groups             // their runs per G₂ slice
	g1         *tensor.Matrix     // prefix → G₁[i₁], a run's slices stacked into one operand
	batch      []tensor.GemmBatch // a serving clone's memo misses
	out        *tensor.Matrix
	p12        []float32 // serial-path prefix recompute scratch
	workGrad   *tensor.Matrix
	bw         bwScratch   // per-occurrence baseline backward
	tl         twoLevelBwd // two-level backward (InAdvanceAgg)
}

// growInts returns buf resized to n, reusing its storage when it fits.
//
//elrec:coldpath amortized scratch growth; steady state reslices in place
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growFloats returns buf resized to n, reusing its storage when it fits.
//
//elrec:coldpath amortized scratch growth; steady state reslices in place
func growFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// rowDenseCap bounds the dense index-dedup scratch: two words per logical
// row. Larger tables fall back to the allocating map-based dedup.
const rowDenseCap = 1 << 22

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
// Forward is safe for concurrent use: every call gets a fresh cache. The
// serialized Lookup/Update path reuses a table-owned cache instead (see
// Lookup).
func (t *Table) Forward(indices, offsets []int) (*tensor.Matrix, *ForwardCache) {
	c := &ForwardCache{} //elrec:coldpath fresh cache per call is Forward's contract; the hot path is Lookup's arena
	out := t.forwardInto(c, indices, offsets)
	return out, c
}

// forwardInto runs the forward pass through c, reusing c's scratch when it
// is an arena cache.
func (t *Table) forwardInto(c *ForwardCache, indices, offsets []int) *tensor.Matrix {
	t.validateBatch(indices, offsets)
	c.Indices, c.Offsets = indices, offsets
	c.seq++

	if t.Opts.DedupIndices {
		t.dedupRows(c)
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
	c.Rows = tensor.Reuse(c.Rows, len(c.WorkIdx), t.Shape.Dim)
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
		start := c.Offsets[s]
		end := len(c.Indices)
		if s+1 < len(c.Offsets) {
			end = c.Offsets[s+1]
		}
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

// dedupRows builds the unique work-item list for the batch. Arena caches on
// tables up to rowDenseCap rows use the stamped dense scratch — no per-batch
// allocation or O(rows) reset; everything else falls back to the allocating
// embedding.Unique.
func (t *Table) dedupRows(c *ForwardCache) {
	if !c.arena || t.Shape.Rows > rowDenseCap {
		//elrec:coldpath allocating map dedup: fresh caches and beyond-cap tables only
		c.WorkIdx, c.WorkOf = embedding.Unique(c.Indices)
		return
	}
	if len(c.rowStamp) < t.Shape.Rows {
		//elrec:coldpath one-time stamp scratch sized to the table
		c.rowStamp = make([]int64, t.Shape.Rows)
		//elrec:coldpath one-time stamp scratch sized to the table
		c.rowSlot = make([]int32, t.Shape.Rows)
	}
	c.workIdxBuf = c.workIdxBuf[:0]
	c.workOfBuf = growInts(c.workOfBuf, len(c.Indices))
	for p, idx := range c.Indices {
		if c.rowStamp[idx] != c.seq {
			c.rowStamp[idx] = c.seq
			c.rowSlot[idx] = int32(len(c.workIdxBuf))
			//elrec:coldpath amortized: the work-item buffer keeps its capacity across batches
			c.workIdxBuf = append(c.workIdxBuf, idx)
		}
		c.workOfBuf[p] = int(c.rowSlot[idx])
	}
	c.WorkIdx, c.WorkOf = c.workIdxBuf, c.workOfBuf
}

// fillPrefixBuffer populates the reuse buffer of first-two-core products for
// the batch's work items. One fact selects the path: the serialized arena
// Lookup of a serving clone — whose cores never change — resolves prefixes
// against the clone's cross-batch memo; everything else (every trainable
// table, and any table's concurrent-safe Forward) computes the batch's own
// unique prefixes.
func (t *Table) fillPrefixBuffer(c *ForwardCache) {
	c.PrefixSlots = growInts(c.PrefixSlots, len(c.WorkIdx))
	if m := t.memo; m != nil && m.slotOf != nil && c.arena {
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
	c.prefixes = t.dedupPrefixes(c, c.WorkIdx, c.PrefixSlots, c.prefixes[:0])
	m2 := t.Shape.RowFactors[1]
	c.i2.sortByI2(m2, c.prefixes, c.PrefixSlots)

	c.PrefixBuf = tensor.Reuse(c.PrefixBuf, len(c.prefixes), t.Shape.PrefixSize())
	c.g1 = tensor.Reuse(c.g1, len(c.prefixes), t.Shape.SliceSizes()[0])
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
// Buf_flag/Buf_idx), and returns the unique prefixes appended to uniq. The
// forward's batch-local reuse buffer and the two-level backward share it.
// Arena caches keep the dense stamped slot map across batches, so neither
// reallocation nor an O(prefixes) reset recurs; fresh caches over a prefix
// space much larger than the batch use a map.
func (t *Table) dedupPrefixes(c *ForwardCache, workIdx, ids, uniq []int) []int {
	np := t.Shape.NumPrefixes()
	if np > 4*len(workIdx)+1024 && !(c.arena && np <= prefixDenseCap) {
		//elrec:coldpath map dedup: fresh caches and beyond-cap prefix spaces only
		slotOf := make(map[int]int, len(workIdx))
		for w, idx := range workIdx {
			pfx := t.Shape.Prefix(idx)
			slot, ok := slotOf[pfx]
			if !ok {
				slot = len(uniq)
				slotOf[pfx] = slot       //elrec:coldpath see above
				uniq = append(uniq, pfx) //elrec:coldpath see above
			}
			ids[w] = slot
		}
		return uniq
	}
	if len(c.pfxStamp) < np {
		//elrec:coldpath one-time stamp scratch sized to the prefix space
		c.pfxStamp = make([]int64, np)
		//elrec:coldpath one-time stamp scratch sized to the prefix space
		c.pfxSlot = make([]int32, np)
	}
	c.seq++ // fresh stamp generation
	for w, idx := range workIdx {
		pfx := t.Shape.Prefix(idx)
		if c.pfxStamp[pfx] != c.seq {
			c.pfxStamp[pfx] = c.seq
			c.pfxSlot[pfx] = int32(len(uniq))
			//elrec:coldpath amortized: the prefix list keeps its capacity across batches
			uniq = append(uniq, pfx)
		}
		ids[w] = int(c.pfxSlot[pfx])
	}
	return uniq
}
