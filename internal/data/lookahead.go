package data

import (
	"fmt"
	"sync"

	"repro/internal/embedding"
)

// This file implements the lookahead stage of the data pipeline: because
// Dataset batches are deterministic and index-addressable, the exact sparse
// access set of the next N batches can be computed before any of them
// trains. The resulting WindowPlan is an oracle for the pipeline's
// embedding cache — it says, per table and per batch, which rows must be
// gathered from the host store (first use in the window), which are served
// from the pinned working set (reused within the window), and how long each
// row's cache entry must survive (its next in-window use).
//
// Each planned stream is drawn once. The plan keeps the raw index stream it
// drew for every planned (table, batch), pooled with the rest of its
// storage, and the pipeline builds the batch from it (Dataset.BatchFrom)
// instead of drawing it again; Release frees the streams with the plan.
//
// Pinning is strictly per window. The first use of a row in a window always
// gathers fresh, even if the previous window used the row: whether a cache
// entry from an earlier window is still live depends on gradient-push
// visibility, which is timing-dependent, and gather decisions must depend
// only on window contents so that training is bit-exact at any queue depth.

// sparseSource produces one table's raw index stream for one batch without
// materializing the full batch, into dst's storage and through the caller's
// generator g (see Dataset.IndicesInto): the stream the source's batches
// hold before any remap, which the plan keeps for Dataset.BatchFrom.
// *Dataset implements it, and so does core's reordering source, which also
// implements remapper.
type sparseSource interface {
	IndicesInto(g *Generator, dst []int, iter, size, table int) []int
}

// remapper is implemented by a sparseSource whose batches train on remapped
// ids (reordering bijections): RemapInto writes the training ids of table's
// raw stream ids into dst's storage and returns them, or reports false when
// the table trains on its raw ids. The planner plans such a table on the
// remapped copy and keeps the raw stream.
type remapper interface {
	RemapInto(dst, ids []int, table int) ([]int, bool)
}

// LookaheadConfig sizes a Lookahead planner.
type LookaheadConfig struct {
	// Window is the number of batches planned together (must be > 1).
	Window int
	// Batch is the batch size passed through to the source.
	Batch int
	// Tables lists the dataset table positions to plan for pinning (the
	// pipeline's host-resident tables).
	Tables []int
	// Rows gives, parallel to Tables, the id-space size of each table. It
	// is validated, never allocated by: planning memory follows the window.
	Rows []int
}

// BatchAccess is one table's planned access pattern for one batch.
// Uniq/Inverse are exactly embedding.Unique of the batch's index stream
// (first-occurrence order). Fresh[i] is true when Uniq[i] must be gathered
// from the backing store for this batch — its first use in the window; a
// false entry is served from the cache's pinned working set. NextUse[i] is
// the absolute iteration of the next in-window use of Uniq[i], or -1 when
// the row's entry need not outlive ordinary push-visibility expiry.
// FreshIDs/FreshPos are the Fresh subset of Uniq and its positions,
// precomputed so the gather path can address the store directly.
type BatchAccess struct {
	Uniq     []int
	Inverse  []int
	Fresh    []bool
	NextUse  []int32
	FreshIDs []int
	FreshPos []int

	stream []int // the raw index stream the access was planned from
}

// TableWindow is one planned table's per-batch access list.
type TableWindow struct {
	Acc []BatchAccess
}

// WindowPlan is the planned access set for the window of batches
// [Start, Start+N). Tables is parallel to the config's Tables. Plans are
// pooled: Release returns the plan's storage — its kept streams included —
// to the planner once every consumer (the last batch's gradient push) is
// done with it.
type WindowPlan struct {
	Start, N int
	Tables   []TableWindow

	owner *Lookahead
}

// Access returns table t's planned access for absolute iteration iter.
func (p *WindowPlan) Access(t, iter int) *BatchAccess {
	return &p.Tables[t].Acc[iter-p.Start]
}

// tablesAt returns the dataset tables p holds streams for, parallel to
// p.Tables, checking that p covers batch iter of this size; a nil plan holds
// none.
func (p *WindowPlan) tablesAt(iter, size int) []int {
	if p == nil {
		return nil
	}
	if iter < p.Start || iter >= p.Start+p.N || size != p.owner.cfg.Batch {
		panic(fmt.Sprintf("data: plan of batches [%d,%d) at size %d cannot build batch %d at size %d",
			p.Start, p.Start+p.N, p.owner.cfg.Batch, iter, size))
	}
	return p.owner.cfg.Tables
}

// Release returns the plan to its planner's pool. The caller must not touch
// the plan (or any slice obtained from it) afterwards.
func (p *WindowPlan) Release() {
	if p == nil || p.owner == nil {
		return
	}
	p.owner.mu.Lock()
	p.owner.free = append(p.owner.free, p)
	p.owner.mu.Unlock()
}

// laScratch is the planning scratch of the table being planned. win maps a
// row id to its window slot — the dense id, in first-occurrence order, of a
// row among the window's distinct rows — and every array below is indexed by
// window slot, so the planner's memory follows window × batch ids, never a
// table's row count. One scratch serves all tables: Advance plans them one
// after another.
type laScratch struct {
	win   embedding.Index
	uslot []int32 // window slot of each batch's uniq rows, batch after batch
	slot  []int32 // window slot → position in uslot of the row's latest use
	next  []int32 // window slot → next-use iteration (backward pass), -1 when none
}

// begin starts a window of at most ids index occurrences: no row has a
// window slot or a next use yet.
func (sc *laScratch) begin(ids int) {
	sc.win.Begin(ids)
	if cap(sc.slot) < ids {
		sc.slot = make([]int32, ids)
		sc.next = make([]int32, ids)
		sc.uslot = make([]int32, ids)
	}
	sc.slot, sc.next, sc.uslot = sc.slot[:ids], sc.next[:ids], sc.uslot[:ids]
}

// reserve sizes acc for a batch of n ids with at most bound distinct rows:
// Inverse holds n entries and the per-row arrays room for bound, so the
// planner writes them in place. Storage is sized to the bound, not grown to
// each new high-water mark, so a plan's storage converges on its first
// window of a batch size.
func (acc *BatchAccess) reserve(n, bound int) {
	if cap(acc.Inverse) < n {
		acc.Inverse = make([]int, n)
	}
	if cap(acc.Uniq) < bound || cap(acc.Fresh) < bound || cap(acc.NextUse) < bound ||
		cap(acc.FreshIDs) < bound || cap(acc.FreshPos) < bound {
		acc.Uniq, acc.Fresh, acc.NextUse = make([]int, bound), make([]bool, bound), make([]int32, bound)
		acc.FreshIDs, acc.FreshPos = make([]int, bound), make([]int, bound)
	}
	acc.Inverse = acc.Inverse[:n]
	acc.Uniq, acc.Fresh, acc.NextUse = acc.Uniq[:bound], acc.Fresh[:bound], acc.NextUse[:bound]
	acc.FreshIDs, acc.FreshPos = acc.FreshIDs[:bound], acc.FreshPos[:bound]
}

// Lookahead plans windows of batches ahead of training. Advance may be
// called from a different goroutine than Release (the pipeline's prefetcher
// advances, the apply loop releases); the pool mutex provides the
// happens-before edge for plan reuse. Each plan's contents are immutable
// between Advance returning it and Release.
type Lookahead struct {
	cfg   LookaheadConfig
	src   sparseSource
	remap remapper // nil: every table trains on its raw stream

	gen     Generator // the one generator every planned stream is drawn through
	scratch laScratch
	streams [][]int // per batch, the planned table's stream as training sees it
	mapped  [][]int // per batch, the remapped copy of a remapped table's stream

	mu   sync.Mutex
	free []*WindowPlan
}

// NewLookahead builds a planner over src, which must implement
// sparseSource: the planner draws per-table index streams through its own
// generator into the plan's storage and never materializes a batch.
func NewLookahead(src any, cfg LookaheadConfig) (*Lookahead, error) {
	if cfg.Window < 2 {
		return nil, fmt.Errorf("lookahead window %d: need at least 2 batches", cfg.Window)
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("lookahead batch size %d: must be positive", cfg.Batch)
	}
	if len(cfg.Tables) != len(cfg.Rows) {
		return nil, fmt.Errorf("lookahead config: %d tables but %d row counts", len(cfg.Tables), len(cfg.Rows))
	}
	sparse, ok := src.(sparseSource)
	if !ok {
		return nil, fmt.Errorf("lookahead source %T does not implement IndicesInto", src)
	}
	l := &Lookahead{cfg: cfg, src: sparse, streams: make([][]int, cfg.Window)}
	if r, ok := src.(remapper); ok {
		l.remap, l.mapped = r, make([][]int, cfg.Window)
	}
	for _, rows := range cfg.Rows {
		if rows <= 0 {
			return nil, fmt.Errorf("lookahead table rows %d: must be positive", rows)
		}
	}
	return l, nil
}

// Advance plans the window of n batches starting at absolute iteration
// start (n may be smaller than the configured window for the tail of a
// run). Each planned table's raw streams are drawn into the plan, which
// keeps them for Dataset.BatchFrom; a table the source remaps is planned on
// a remapped copy. The returned plan is valid until Release. Once plan
// storage has grown to the working set, it allocates nothing.
func (l *Lookahead) Advance(start, n int) *WindowPlan {
	if n < 1 || n > l.cfg.Window {
		panic(fmt.Sprintf("lookahead: Advance(%d, %d) outside window size %d", start, n, l.cfg.Window))
	}
	plan := l.takePlan(n)
	plan.Start, plan.N = start, n
	for ti, pos := range l.cfg.Tables {
		acc := plan.Tables[ti].Acc
		for j := 0; j < n; j++ {
			acc[j].stream = l.src.IndicesInto(&l.gen, acc[j].stream, start+j, l.cfg.Batch, pos)
			l.streams[j] = acc[j].stream
			if l.remap != nil {
				if m, ok := l.remap.RemapInto(l.mapped[j], acc[j].stream, pos); ok {
					l.mapped[j], l.streams[j] = m, m
				}
			}
		}
		l.planTable(ti, plan, start, n)
	}
	return plan
}

// takePlan pops a pooled plan or builds a fresh one, and sizes its per-table
// access lists for an n-batch window.
func (l *Lookahead) takePlan(n int) *WindowPlan {
	l.mu.Lock()
	var plan *WindowPlan
	if k := len(l.free); k > 0 {
		plan = l.free[k-1]
		l.free = l.free[:k-1]
	}
	l.mu.Unlock()
	if plan == nil {
		plan = &WindowPlan{
			owner:  l,
			Tables: make([]TableWindow, len(l.cfg.Tables)),
		}
	}
	for ti := range plan.Tables {
		tw := &plan.Tables[ti]
		if cap(tw.Acc) < n {
			tw.Acc = append(tw.Acc[:cap(tw.Acc)], make([]BatchAccess, n-cap(tw.Acc))...)
		}
		tw.Acc = tw.Acc[:n]
	}
	return plan
}

// planTable runs the two planning passes for table ti over the index
// streams in l.streams[0:n]. The forward pass builds each batch's uniq/inverse
// and hands every distinct row of the window its window slot; a row whose
// slot it creates is on its first use in the window, so that uniq entry is
// Fresh and joins FreshIDs/FreshPos; a batch has at most min(ids, rows)
// distinct rows, which is what reserve sizes for. The backward pass links
// each uniq entry to the row's next in-window use through the slots
// recorded in uslot.
func (l *Lookahead) planTable(ti int, plan *WindowPlan, start, n int) {
	sc := &l.scratch
	tw := &plan.Tables[ti]

	total := 0
	for _, ids := range l.streams[:n] {
		total += len(ids)
	}
	sc.begin(total)

	slots, base := 0, 0 // window slots handed out; uslot offset of batch j
	for j := 0; j < n; j++ {
		acc := &tw.Acc[j]
		ids := l.streams[j]
		acc.reserve(len(ids), min(len(ids), l.cfg.Rows[ti]))
		u, k := 0, 0 // the batch's uniq and fresh entries so far
		for p, id := range ids {
			w, fresh := sc.win.IDOf(id, slots)
			if fresh {
				slots++
				sc.slot[w], sc.next[w] = -1, -1
			}
			if int(sc.slot[w]) < base { // last seen in an earlier batch, or never
				sc.slot[w] = int32(base + u)
				sc.uslot[sc.slot[w]] = int32(w)
				acc.Uniq[u], acc.Fresh[u] = id, fresh
				if fresh {
					acc.FreshIDs[k], acc.FreshPos[k] = id, u
					k++
				}
				u++
			}
			acc.Inverse[p] = int(sc.slot[w]) - base
		}
		acc.Uniq, acc.Fresh, acc.NextUse = acc.Uniq[:u], acc.Fresh[:u], acc.NextUse[:u]
		acc.FreshIDs, acc.FreshPos = acc.FreshIDs[:k], acc.FreshPos[:k]
		base += u
	}

	for j := n - 1; j >= 0; j-- {
		acc := &tw.Acc[j]
		base -= len(acc.Uniq)
		for i := range acc.Uniq {
			w := sc.uslot[base+i]
			acc.NextUse[i] = sc.next[w]
			sc.next[w] = int32(start + j)
		}
	}
}
