package tt

import "repro/internal/tensor"

// This file implements the cross-batch extension of Algorithm 1's reuse
// buffer: instead of recomputing every unique prefix product G₁[i₁]·G₂[i₂]
// each batch, products persist in a table-owned cache and are reused as
// long as the core slices they were computed from are unchanged.
//
// Correctness rests on versioning, not on invalidation callbacks: every row
// of cores G₁ and G₂ carries a version counter (Table.coreVer) bumped by
// whichever update path mutates it — the fused backward kernel bumps the
// touched rows, the unfused optimizer sweep bumps all of them. A cached
// product is valid iff the versions of *both* source slices still equal the
// versions captured when it was filled; a hit therefore returns bytes
// computed by the same kernel from identical inputs, which is bit-exact
// with recomputing.
//
// The cache is only consulted on the arena (Lookup/Update) path, which the
// Table protocol serializes, so no locking is needed here; the concurrent
// Forward path keeps its batch-local buffer. Deterministic tables bypass
// the cache entirely so their execution matches the documented
// single-threaded recompute exactly.

// prefixCacheBudgetBytes is the soft cap on cached product storage; beyond
// it the cache recycles slots not used by the current batch instead of
// growing. A batch whose unique prefixes alone exceed the budget still
// grows (every slot of the current batch must be live simultaneously).
const prefixCacheBudgetBytes = 16 << 20

// prefixDenseCap bounds the dense prefix→slot array (one int32 per possible
// prefix). Prefix counts grow like rows^(2/3), so this covers every
// realistic table; beyond it the persistent cache is disabled.
const prefixDenseCap = 1 << 22

// prefixCache is the persistent reuse buffer. Slot arrays (key, v1, v2,
// lastUse) and buf rows grow together; slotOf maps a prefix to its slot or
// -1. Serialized by the Table protocol (see //elrec:locked notes on users).
type prefixCache struct {
	slotOf  []int32 // prefix → slot, -1 when absent
	key     []int   // slot → prefix
	v1, v2  []uint64
	lastUse []int64 // slot → last batch seq that touched it
	buf     *tensor.Matrix
	seq     int64
	cursor  int // eviction scan position
}

// prefixCacheFor returns the table's persistent prefix cache when the call
// may use it: arena caches only (the serialized path), never in
// Deterministic mode, and only while the dense prefix map stays affordable.
//
//elrec:coldpath allocates only on first construction; steady state returns the existing cache
func (t *Table) prefixCacheFor(c *ForwardCache) *prefixCache {
	if !c.arena || t.Deterministic || t.Shape.NumPrefixes() > prefixDenseCap {
		return nil
	}
	if t.pcache == nil {
		pc := &prefixCache{
			slotOf: make([]int32, t.Shape.NumPrefixes()),
			buf:    tensor.New(64, t.Shape.PrefixSize()),
		}
		for i := range pc.slotOf {
			pc.slotOf[i] = -1
		}
		t.pcache = pc
		t.ensureCoreVersions()
	}
	return t.pcache
}

// fillFromPrefixCache resolves every work item's prefix against the
// persistent cache. Valid entries are hits; stale or absent entries are
// recorded as misses, assigned slots, and recomputed by one batched GEMM
// after the scan (slot storage may grow during the scan, so row pointers
// are only taken once the scan is done).
func (t *Table) fillFromPrefixCache(c *ForwardCache, pc *prefixCache) {
	pc.seq++
	c.prefixes = c.prefixes[:0] // slots to recompute this batch
	hits := 0
	m2 := t.Shape.RowFactors[1]
	budget := prefixCacheBudgetBytes / (4 * t.Shape.PrefixSize())
	if budget < 64 {
		budget = 64
	}
	// One snapshot per batch: ProtectPrefixes publishes immutable bitmaps,
	// so the scan sees a consistent protection set even while the
	// pre-fetcher advances to the next window.
	prot := t.protected.Load()
	for w, idx := range c.WorkIdx {
		pfx := t.Shape.Prefix(idx)
		s := pc.slotOf[pfx]
		if s >= 0 && pc.lastUse[s] == pc.seq {
			// Prefix already resolved this batch (as a hit or queued miss).
			c.PrefixSlots[w] = int(s)
			continue
		}
		i1, i2 := pfx/m2, pfx%m2
		if s >= 0 {
			pc.lastUse[s] = pc.seq
			if pc.v1[s] == t.coreVer[0][i1] && pc.v2[s] == t.coreVer[1][i2] {
				hits++
				c.PrefixSlots[w] = int(s)
				continue
			}
		} else {
			s = pc.claimSlot(budget, prot)
			pc.slotOf[pfx] = s
			pc.key[s] = pfx
			pc.lastUse[s] = pc.seq
		}
		// Miss: capture source versions now (the scan is serialized with
		// every core mutation) and queue the slot for recompute.
		pc.v1[s] = t.coreVer[0][i1]
		pc.v2[s] = t.coreVer[1][i2]
		//elrec:coldpath amortized: the miss list keeps its capacity across batches
		c.prefixes = append(c.prefixes, int(s))
		c.PrefixSlots[w] = int(s)
	}

	if len(c.prefixes) > 0 {
		if cap(c.batch) < len(c.prefixes) {
			//elrec:coldpath amortized batched-GEMM descriptor growth
			c.batch = make([]tensor.GemmBatch, len(c.prefixes))
		}
		c.batch = c.batch[:len(c.prefixes)]
		for i, s := range c.prefixes {
			pfx := pc.key[s]
			i1, i2 := pfx/m2, pfx%m2
			c.batch[i] = tensor.GemmBatch{A: t.Slice1(i1), B: t.Slice2(i2), C: pc.buf.Row(s)}
		}
		n := t.Shape.ColFactors
		tensor.BatchedMatMul(n[0], t.Shape.R1, n[1]*t.Shape.R2, c.batch)
	}
	c.PrefixBuf = pc.buf
	t.met.recordPrefix(len(c.WorkIdx), len(c.prefixes))
	t.met.recordPrefixCache(hits, len(c.prefixes))
}

// claimSlot returns a free slot index: a fresh one while under budget, an
// evicted slot (round-robin over slots idle this batch) when at budget, or
// growth past budget when every slot is live in the current batch. Slots
// whose prefix is in the lookahead protection set prot are skipped by the
// eviction scan — their rows recur in the planned window, so recycling them
// would trade a certain future hit for an uncertain one; when every idle
// slot is protected the cache grows instead.
//
//elrec:coldpath miss-path slot bookkeeping; growth is amortized by the budget and a stable working set stops missing
func (pc *prefixCache) claimSlot(budget int, prot *protectedPrefixes) int32 {
	if len(pc.key) >= budget {
		n := len(pc.key)
		for i := 0; i < n; i++ {
			s := pc.cursor
			pc.cursor++
			if pc.cursor == n {
				pc.cursor = 0
			}
			if pc.lastUse[s] != pc.seq && !prot.has(pc.key[s]) {
				pc.slotOf[pc.key[s]] = -1
				return int32(s)
			}
		}
	}
	s := len(pc.key)
	if s >= pc.buf.Rows {
		pc.growBuf()
	}
	pc.key = append(pc.key, 0)
	pc.v1 = append(pc.v1, 0)
	pc.v2 = append(pc.v2, 0)
	pc.lastUse = append(pc.lastUse, 0)
	return int32(s)
}

// growBuf doubles the product storage, preserving cached rows byte-for-byte
// (hits must stay bit-exact across growth). Growth only happens inside the
// scan phase, before any row pointers are taken for the batched GEMM.
func (pc *prefixCache) growBuf() {
	nm := tensor.New(2*pc.buf.Rows, pc.buf.Cols)
	copy(nm.Data, pc.buf.Data)
	pc.buf = nm
}

// InvalidatePrefixCache drops every cached prefix product. The versioned
// cache detects optimizer updates on its own; call this after mutating
// Cores storage directly (checkpoint restore, test surgery on core data).
func (t *Table) InvalidatePrefixCache() {
	pc := t.pcache
	if pc == nil {
		return
	}
	for i := range pc.slotOf {
		pc.slotOf[i] = -1
	}
	pc.key = pc.key[:0]
	pc.v1 = pc.v1[:0]
	pc.v2 = pc.v2[:0]
	pc.lastUse = pc.lastUse[:0]
	pc.cursor = 0
}

// ensureCoreVersions allocates the per-row version counters of the first
// two cores (the prefix sources). Versions start at zero; every mutation
// path bumps them: applyGradSlice as the slice's owner (its single writer on
// the two-level backward, under the row's stripe lock via sinkLocked on the
// per-occurrence baseline), the unfused sweep wholesale.
func (t *Table) ensureCoreVersions() {
	for k := 0; k < 2; k++ {
		if t.coreVer[k] == nil {
			t.coreVer[k] = make([]uint64, t.Shape.RowFactors[k])
		}
	}
}

// protectedPrefixes is an immutable bitmap over the prefix space marking
// slots the eviction scan must skip. Instances are never mutated after
// publication (ProtectPrefixes builds a fresh one per window), so readers
// holding an old snapshot stay consistent.
type protectedPrefixes struct {
	bits []uint64
}

// has reports whether prefix pfx is protected (false on a nil set).
func (p *protectedPrefixes) has(pfx int) bool {
	if p == nil {
		return false
	}
	return p.bits[pfx>>6]&(1<<(uint(pfx)&63)) != 0
}

// ProtectPrefixes installs the lookahead protection set: the TT prefixes of
// ids (logical row ids) are shielded from prefix-cache slot recycling until
// the next call. The pipeline's pre-fetcher calls this once per window with
// the rows that recur within it; nil or empty ids clears the set. Safe to
// call concurrently with lookups: the bitmap is immutable once published
// and readers snapshot it per batch. On tables whose prefix space exceeds
// the dense cache cap the call is a no-op (there is no cache to protect).
func (t *Table) ProtectPrefixes(ids []int) {
	if t.Shape.NumPrefixes() > prefixDenseCap {
		return
	}
	if len(ids) == 0 {
		t.protected.Store(nil)
		return
	}
	p := &protectedPrefixes{bits: make([]uint64, (t.Shape.NumPrefixes()+63)/64)}
	for _, id := range ids {
		pfx := t.Shape.Prefix(id)
		p.bits[pfx>>6] |= 1 << (uint(pfx) & 63)
	}
	t.protected.Store(p)
}

// bumpAllCoreVersions invalidates every cached prefix by advancing all
// source-slice versions; the unfused optimizer sweep rewrites both cores
// wholesale, so per-row tracking has nothing to save.
func (t *Table) bumpAllCoreVersions() {
	for k := 0; k < 2; k++ {
		for i := range t.coreVer[k] {
			t.coreVer[k][i]++
		}
	}
}
