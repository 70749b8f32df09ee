package tt

import "repro/internal/tensor"

// This file is the one place a prefix product G₁[i₁]·G₂[i₂] outlives its
// batch: the memo of a read-only serving clone (CloneForServing). A
// trainable table rewrites every core slice a batch touches in that batch's
// update, so a product kept across steps is never valid again and training
// runs Algorithm 1's reuse buffer per batch (fillPrefixBatchLocal). A
// clone's cores never change — backward on a clone panics — so a memoised
// product stays valid for the clone's whole life and carries no version: a
// hit returns bytes the same GEMM kernel computed from the same two
// slices, bit-exact with recomputing. A new model version is served by fresh
// clones (Pool.Swap), which start with an empty memo.
//
// A table serves one goroutine at a time (concurrent serving runs one clone
// per goroutine), so the memo takes no lock.

// prefixMemoBudgetBytes is the soft cap on memoised product storage; beyond
// it the memo recycles slots not used by the current batch instead of
// growing. A batch whose unique prefixes alone exceed the budget still
// grows (every slot of the current batch must be live simultaneously).
const prefixMemoBudgetBytes = 16 << 20

// prefixDenseCap bounds the memo's dense prefix→slot map (4 B per prefix,
// kept across batches). Prefix counts grow like rows^(2/3), so this covers
// every realistic table; beyond it a clone has no memo and runs batch-local.
const prefixDenseCap = 1 << 22

// prefixMemo is a serving clone's cross-batch reuse buffer. Slot arrays
// (key, lastUse) and buf rows grow together.
type prefixMemo struct {
	slotOf  []int32 // prefix → slot+1, 0 when absent; nil beyond prefixDenseCap (no memo)
	key     []int   // slot → prefix
	lastUse []int64 // slot → last batch seq that touched it
	buf     *tensor.Matrix
	budget  int // slots held before recycling starts
	seq     int64
	cursor  int // recycling scan position
}

func newPrefixMemo(s Shape) *prefixMemo {
	m := &prefixMemo{budget: max(prefixMemoBudgetBytes/(4*s.prefixSize()), 64)}
	if s.numPrefixes() <= prefixDenseCap {
		m.slotOf = make([]int32, s.numPrefixes())
		m.buf = tensor.New(64, s.prefixSize())
	}
	return m
}

// fillFromMemo resolves every work item's prefix against the memo. Held
// products are hits; absent ones are assigned slots and computed after the
// scan (slot storage may grow during the scan, so row pointers are only taken
// once it is done).
func (t *Table) fillFromMemo(c *forwardCache, m *prefixMemo) {
	m.seq++
	c.prefixes = c.prefixes[:0] // slots to compute this batch
	hits := 0
	for w, idx := range c.WorkIdx {
		pfx := t.Shape.prefix(idx)
		s := int(m.slotOf[pfx]) - 1
		if s < 0 {
			s = m.claimSlot()
			m.slotOf[pfx] = int32(s + 1)
			m.key[s] = pfx
			c.prefixes = append(c.prefixes, s)
		} else if m.lastUse[s] != m.seq {
			hits++ // first sight this batch of a product an earlier batch left
		}
		m.lastUse[s] = m.seq
		c.PrefixSlots[w] = s
	}

	m2 := t.Shape.RowFactors[1]
	for _, s := range c.prefixes {
		t.computePrefix(m.key[s]/m2, m.key[s]%m2, m.buf.Row(s))
	}
	c.PrefixBuf = m.buf
	t.met.recordPrefix(len(c.WorkIdx), len(c.prefixes))
	t.met.recordPrefixCache(hits, len(c.prefixes))
}

// claimSlot returns a free slot: a fresh one while under budget, a recycled
// one (round-robin over slots idle this batch) at budget, or growth past
// budget when every slot is live in the current batch.
func (m *prefixMemo) claimSlot() int {
	n := len(m.key)
	if n >= m.budget {
		for i := 0; i < n; i++ {
			s := m.cursor
			m.cursor++
			if m.cursor == n {
				m.cursor = 0
			}
			if m.lastUse[s] != m.seq {
				m.slotOf[m.key[s]] = 0
				return s
			}
		}
	}
	if n >= m.buf.Rows {
		m.growBuf()
	}
	m.key = append(m.key, 0)
	m.lastUse = append(m.lastUse, 0)
	return n
}

// growBuf grows the product storage by a quarter (at least 64 rows, and
// not past the budget while under it), preserving memoised rows byte for
// byte (hits must stay bit-exact across growth). Growth only happens inside
// the scan, before any row pointer is taken for the miss products. Which
// requests a replica serves depends on timing, so the step at which its memo
// grows does too; with quarter steps the buffer never exceeds what the memo
// holds by more than a quarter, whichever side of a step a run ends on.
func (m *prefixMemo) growBuf() {
	rows := m.buf.Rows + max(m.buf.Rows/4, 64)
	if m.buf.Rows < m.budget {
		rows = min(rows, m.budget)
	}
	nm := tensor.New(rows, m.buf.Cols)
	copy(nm.Data, m.buf.Data)
	m.buf = nm
}
