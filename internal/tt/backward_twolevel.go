package tt

import "repro/internal/tensor"

// This file is the Eff-TT backward (Options.InAdvanceAgg). The chain rule of
// row(i) = reshape(G₁[i₁]·G₂[i₂])·G₃[i₃] for one aggregated gradient row g is
//
//	dG₃[i₃] += P₁₂ᵀ·g          (R₂ × n₃,    n₁n₂·n₃·R₂ MACs)
//	dP₁₂     = g·G₃[i₃]ᵀ        (n₁n₂ × R₂, n₁n₂·n₃·R₂ MACs)
//	dG₂[i₂] += G₁[i₁]ᵀ·dP₁₂    (R₁ × n₂R₂, n₁·R₁·n₂R₂ MACs)
//	dG₁[i₁] += dP₁₂·G₂[i₂]ᵀ    (n₁ × R₁,   n₁·R₁·n₂R₂ MACs)
//
// The last two are the rank-sized ones (R₁·R₂ each, 94% of the chain at
// n = 4·4·4, R = 64), they depend on the index only through its prefix
// (i₁,i₂), and they are linear in dP₁₂. So dP₁₂ is summed over the work
// items of a prefix first and the two big products run once per unique
// prefix — the backward counterpart of Algorithm 1's reuse buffer, a second
// aggregation level the paper's backward (and TT-Rec's) does not have.
//
// Execution is three phases, each one tensor.ParallelFor over owners (inline
// on one executor):
//
//  1. per unique prefix u: dP₁₂[u] = Σ_w g_w·G₃[i₃(w)]ᵀ over its work items
//     in work-item order; each item keeps its small P₁₂ᵀ·g_w in c3[w];
//  2. per unique i₂, whose prefixes are contiguous (sortByI2): one product
//     [dP₁₂[u]]·G₂[i₂]ᵀ leaves every prefix's small share in c1[u], and one
//     product [G₁[i₁(u)]]ᵀ·[dP₁₂[u]], its inner dimension running over the
//     whole group, is dG₂[i₂]; its epilogue writes G₂[i₂] once, as −lr·dG₂ +
//     G₂ under fused SGD (the paper's fused TT-core update, with no dG₂
//     buffer), and adds dG₂ into the gradient-buffer row when unfused;
//  3. per unique i₁ and per unique i₃: the kept contributions are summed in
//     prefix / work-item order and G₁[i₁] / G₃[i₃] is written once.
//
// Ownership rule: every scratch row and every core slice has exactly one
// writer (its prefix, its i₂ group, its slice), and all of G₁, G₃ and a
// group's own G₂[i₂] are read before they are written. Hence no lock, no
// read of a slice another goroutine is updating, a summation order that
// does not depend on how owners are chunked over executors (bit-identical
// cores for every worker count), one optimizer apply per touched slice per
// batch, and a fused update that is exact mini-batch SGD: it differs from the
// unfused path only in the sink (core slice vs gradient-buffer row), bit for
// bit the same cores. The
// paper's CUDA kernel instead lets threads update shared slices with atomics
// as they go; that is kept only as the per-occurrence baseline
// (backwardPerOccurrence).

// groups is a stable counting sort of items 0..n-1 by a small integer key:
// the items of key k, in increasing item order, are items[start[k]:start[k+1]].
type groups struct {
	start []int
	items []int
	key   []int // sortByI2's scratch
}

// build sorts the items by key[item] ∈ [0,numKeys); bound bounds len(key)
// and, where the keys are the batch's prefixes, numKeys (growInts).
func (g *groups) build(numKeys int, key []int, bound int) {
	g.start = growInts(g.start, numKeys+1, max(numKeys, bound)+1)
	for k := range g.start {
		g.start[k] = 0
	}
	for _, k := range key {
		g.start[k+1]++
	}
	// The running sum stays in a register: a chain through start costs a
	// store-to-load round trip per key, which over m₂ keys cost a one-index
	// lookup about as much as its prefix product.
	counts, sum := g.start[1:], 0
	for k, n := range counts {
		sum += n
		counts[k] = sum
	}
	g.items = growInts(g.items, len(key), bound)
	// Place using start[k] as key k's cursor, which leaves start[k] at the
	// end of group k; shifting by one restores the group starts.
	for item, k := range key {
		g.items[g.start[k]] = item
		g.start[k]++
	}
	copy(g.start[1:], g.start[:numKeys])
	g.start[0] = 0
}

// of returns the items of key k.
func (g *groups) of(k int) []int { return g.items[g.start[k]:g.start[k+1]] }

// sortByI2 is the reuse-buffer fill's stacking step, whose grouping the
// two-level backward reads too: it stably sorts the batch's unique prefixes uniq (first-
// occurrence order, prefix = i₁·m₂+i₂) by i₂ and renumbers ids (work item →
// position in uniq) to match. Afterwards uniq[start[i₂]:start[i₂+1]] are the
// prefixes of G₂[i₂], still in first-occurrence order, so every row set
// indexed by the new numbers (reuse buffer, dP₁₂, c1) is one contiguous
// stacked operand per slice. items is left holding a copy of uniq.
func (g *groups) sortByI2(m2 int, uniq, ids []int, bound int) {
	g.key = growInts(g.key, len(uniq), bound)
	for u, pfx := range uniq {
		g.key[u] = pfx % m2
	}
	g.build(m2, g.key, bound)
	for pos, u := range g.items {
		g.key[u], g.items[pos] = pos, uniq[u]
	}
	copy(uniq, g.items)
	for w, u := range ids {
		ids[w] = g.key[u]
	}
}

// twoLevelBwd is the state of one two-level backward call. It lives in the
// forward cache, so the arena path reuses every buffer across batches. The
// batch's unique prefixes, sorted by i₂ — their values, runs per G₂ slice,
// reuse-buffer rows and stacked G₁ slices — are the forward cache's
// (prefixes, i2, PrefixBuf, g1): prefix u is reuse-buffer row u.
type twoLevelBwd struct {
	workIdx []int // unique indices of the batch (the work items)

	pfxOf []int // work item → u
	key   []int // counting-sort key scratch

	byPfx groups // work items by u
	byI3  groups // work items by i₃
	byI1  groups // unique prefixes by i₁

	dP12 *tensor.Matrix // u → dP₁₂
	c1   *tensor.Matrix // u → dP₁₂[u]·G₂[i₂]ᵀ, prefix u's share of dG₁[i₁]
	c3   *tensor.Matrix // work item → P₁₂ᵀ·g_w, its share of dG₃[i₃]
	dG2  *tensor.Matrix // part → the dG₂[i₂] it is working on, fused Adagrad only
}

// backwardTwoLevel runs the three phases for the batch in cache, whose
// workGrad holds the aggregated gradient row of each work item.
func (t *Table) backwardTwoLevel(cache *forwardCache, dOut *tensor.Matrix) {
	b := &cache.tl
	var workOf []int
	b.workIdx, workOf = t.aggregateGrads(cache, dOut)
	t.groupWork(cache, b, workOf)
	t.met.recordBackward(len(cache.Indices), len(b.workIdx), len(cache.prefixes))

	m := t.Shape.RowFactors
	// Phase 2 loops over parts, part p owning the groups i₂ ≡ p (mod parts):
	// reordered indices put most prefixes in the lowest i₂, which striding
	// spreads evenly. Only the fused Adagrad apply needs dG₂[i₂]
	// materialized, in one slice-sized row per part.
	cache.parts = min(tensor.Workers(), m[1])
	if cache.gradBufs[1] == nil && t.AdagradEnabled() {
		b.dG2 = tensor.Reuse(b.dG2, cache.parts, t.Shape.sliceSizes()[1])
	}
	tensor.ParallelFor(len(cache.prefixes), cache, prefixPhase)
	tensor.ParallelFor(cache.parts, cache, core2Phase)
	tensor.ParallelFor(m[0]+m[2], cache, core13Phase)
}

// groupWork maps each work item to its unique prefix, counting-sorts work
// items by prefix and by i₃ and prefixes by i₁, and sizes the scratch. The
// prefixes are the forward's when it filled the reuse buffer: deduplicated
// in first-occurrence order and sorted by i₂, they are the same list over
// occurrences as over unique indices, so forward work item fw's slot is its
// prefix — fw itself under DedupIndices, occurrence fw's unique index
// otherwise. When the forward recomputed prefixes instead, the buffer is
// filled here over the aggregated rows, with the bits of the per-prefix
// product (m-independence).
func (t *Table) groupWork(c *forwardCache, b *twoLevelBwd, workOf []int) {
	m := t.Shape.RowFactors
	items, bound := len(b.workIdx), len(c.Indices)
	if c.reused {
		b.pfxOf = growInts(b.pfxOf, items, bound)
		for fw, slot := range c.PrefixSlots {
			w := fw
			if !t.Opts.DedupIndices {
				w = workOf[fw]
			}
			b.pfxOf[w] = slot
		}
	} else {
		t.fillPrefixBatchLocal(c, b.workIdx)
		b.pfxOf = c.PrefixSlots
	}
	prefixes := len(c.prefixes)

	b.byPfx.build(prefixes, b.pfxOf, bound)
	b.key = growInts(b.key, items, bound)
	for w, idx := range b.workIdx {
		b.key[w] = idx % m[2]
	}
	b.byI3.build(m[2], b.key, bound)
	b.key = growInts(b.key, prefixes, bound)
	for u, pfx := range c.prefixes {
		b.key[u] = pfx / m[1]
	}
	b.byI1.build(m[0], b.key, bound)

	sz := t.Shape.sliceSizes()
	b.dP12 = tensor.ReuseRows(b.dP12, prefixes, t.Shape.prefixSize(), bound)
	b.c1 = tensor.ReuseRows(b.c1, prefixes, sz[0], bound)
	b.c3 = tensor.ReuseRows(b.c3, items, sz[2], bound)
}

// prefixPhase is phase 1, a ParallelFor body over a *forwardCache, for
// unique prefixes [lo,hi): it owns rows u of dP12 and rows w of c3 for the
// work items w of u, and only reads cores and the reuse buffer.
func prefixPhase(ctx any, lo, hi int) {
	c := ctx.(*forwardCache)
	t, b := c.t, &c.tl
	n := t.Shape.ColFactors
	r2 := t.Shape.R2
	m3 := t.Shape.RowFactors[2]
	for u := lo; u < hi; u++ {
		p12 := c.PrefixBuf.Row(u)
		dP12 := b.dP12.Row(u)
		clear(dP12)
		for _, w := range b.byPfx.of(u) {
			g := c.workGrad.Row(w)
			// dP₁₂[u] += g·G₃[i₃]ᵀ   (n₁n₂ × R₂).
			tensor.GemmTransBAddInto(n[0]*n[1], n[2], r2, g, t.Slice3(b.workIdx[w]%m3), dP12)
			// c3[w] = P₁₂ᵀ·g   (R₂ × n₃), P₁₂ viewed as n₁n₂ × R₂.
			tensor.GemmTransAInto(r2, n[0]*n[1], n[2], p12, g, b.c3.Row(w))
		}
	}
}

// core2Phase is phase 2, a ParallelFor body over a *forwardCache: part p of
// [lo,hi) owns G₂[i₂] for i₂ = p, p+parts, … and rows u of c1 for the
// prefixes u of their groups, and reads dP12 and the stacked G₁ slices the
// reuse-buffer fill left in the cache's g1. c1 is stored before
// G₂[i₂] is written; the dG₂ product accumulates straight into its sink,
// except under fused Adagrad (which needs dG₂²): that stores it into row p
// of b.dG2 and applies it there.
func core2Phase(ctx any, lo, hi int) {
	c := ctx.(*forwardCache)
	t, b := c.t, &c.tl
	n := t.Shape.ColFactors
	r1, r2 := t.Shape.R1, t.Shape.R2
	sz0, psz := b.c1.Cols, b.dP12.Cols
	for p := lo; p < hi; p++ {
		for i2 := p; i2 < t.Shape.RowFactors[1]; i2 += c.parts {
			first, end := c.i2.start[i2], c.i2.start[i2+1]
			if first == end {
				continue
			}
			// The group's dP₁₂ stacked: (k·n₁) × n₂R₂ for its k prefixes.
			rows, dP12 := (end-first)*n[0], b.dP12.Data[first*psz:end*psz]
			// c1[u] = dP₁₂[u]·G₂[i₂]ᵀ for every u of the group   (k·n₁ × R₁).
			tensor.GemmTransBInto(rows, n[1]*r2, r1, dP12, t.Slice2(i2), b.c1.Data[first*sz0:end*sz0])
			// dG₂[i₂] = Σ_u G₁[i₁(u)]ᵀ·dP₁₂[u] = [G₁]ᵀ·[dP₁₂]   (R₁ × n₂R₂).
			g1 := c.g1.Data[first*sz0 : end*sz0]
			switch {
			case c.gradBufs[1] != nil:
				tensor.GemmTransAAddInto(r1, rows, n[1]*r2, 1, g1, dP12, c.gradBufs[1].Row(i2))
			case t.AdagradEnabled():
				tensor.GemmTransAInto(r1, rows, n[1]*r2, g1, dP12, b.dG2.Row(p))
				t.applyGradSlice(1, i2, b.dG2.Row(p), c.lr)
			default:
				tensor.GemmTransAAddInto(r1, rows, n[1]*r2, -c.lr, g1, dP12, t.Slice2(i2))
			}
		}
	}
}

// core13Phase is phase 3, a ParallelFor body over a *forwardCache, for
// owners [lo,hi) of the concatenated slice list (G₁ slices first, then G₃
// slices): each owner sums its kept contributions into the first one's row,
// in prefix / work-item order, and writes its slice once.
func core13Phase(ctx any, lo, hi int) {
	c := ctx.(*forwardCache)
	t, b := c.t, &c.tl
	m1 := t.Shape.RowFactors[0]
	for o := lo; o < hi; o++ {
		if o < m1 {
			t.reduceAndSink(c, 0, o, b.c1, b.byI1.of(o))
		} else {
			t.reduceAndSink(c, 2, o-m1, b.c3, b.byI3.of(o-m1))
		}
	}
}

// reduceAndSink sums the listed rows of contrib into the first of them, in
// list order, and delivers the sum as the batch gradient of slice row of
// core k — the one sinkGrad call that slice gets this batch.
func (t *Table) reduceAndSink(c *forwardCache, k, row int, contrib *tensor.Matrix, rows []int) {
	if len(rows) == 0 {
		return
	}
	sum := contrib.Row(rows[0])
	for _, r := range rows[1:] {
		tensor.AddTo(sum, contrib.Row(r))
	}
	t.sinkGrad(c, k, row, sum)
}
