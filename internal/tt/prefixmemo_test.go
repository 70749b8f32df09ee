package tt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// cacheCounters attaches a fresh registry and returns the two cross-batch
// memo counters so tests can assert per-step deltas.
func cacheCounters(tbl *Table) (hits, misses *obs.Counter) {
	reg := obs.NewRegistry()
	tbl.AttachMetrics(reg)
	return reg.Counter("tt_prefix_cache_hits"), reg.Counter("tt_prefix_cache_misses")
}

// idxFor builds a flat row index from TT coordinates under testShape
// (RowFactors {4,5,5}): idx = (i1*5+i2)*5+i3.
func idxFor(i1, i2, i3 int) int { return (i1*5+i2)*5 + i3 }

// requireSameBits fails unless got and want hold identical floats.
func requireSameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: differs at %d: %v vs %v", what, i, v, want.Data[i])
		}
	}
}

// TestPrefixCacheHitsAcrossBatches checks that a serving clone's second
// Lookup of the same batch is served entirely from its memo.
func TestPrefixCacheHitsAcrossBatches(t *testing.T) {
	clone := newTestTable(t, 500).CloneForServing()
	hits, misses := cacheCounters(clone)

	indices := []int{idxFor(0, 0, 0), idxFor(1, 1, 0), idxFor(2, 2, 1)}
	offsets := []int{0, 1, 2}
	clone.Lookup(indices, offsets)
	if h, m := hits.Value(), misses.Value(); h != 0 || m != 3 {
		t.Fatalf("cold batch: hits=%d misses=%d, want 0/3", h, m)
	}
	clone.Lookup(indices, offsets)
	if h, m := hits.Value(), misses.Value(); h != 3 || m != 3 {
		t.Fatalf("warm batch: hits=%d misses=%d, want 3/3", h, m)
	}
}

// TestPrefixCacheBitExactAgainstRecompute pins the hit contract: a clone's
// Lookup, cold or served from memoised products, is bit-identical to the
// batch-local recompute (fresh-cache forward) on the source — across model
// versions produced the supported way, by training the source and
// re-cloning.
func TestPrefixCacheBitExactAgainstRecompute(t *testing.T) {
	tbl := newTestTable(t, 503)
	r := tensor.NewRNG(504)
	indices, offsets := randomBatch(r, tbl.NumRows(), 32, 4)
	dOut := tensor.New(len(offsets), tbl.Dim())

	for version := 0; version < 4; version++ {
		clone := tbl.CloneForServing()
		hits, _ := cacheCounters(clone)
		want, _ := tbl.forward(indices, offsets) // batch-local prefixes
		requireSameBits(t, fmt.Sprintf("version %d cold lookup", version), clone.Lookup(indices, offsets), want)
		requireSameBits(t, fmt.Sprintf("version %d warm lookup", version), clone.Lookup(indices, offsets), want)
		if hits.Value() == 0 {
			t.Fatalf("version %d: warm lookup recorded no memo hits", version)
		}
		trainOneStep(tbl, indices, offsets, dOut, 0.01)
	}
}

// TestPrefixCacheEvictionRecycling drives claimSlot past a shrunken budget
// and checks the slot arrays stop growing once every batch fits:
// round-robin recycling reuses idle slots instead of allocating new ones.
func TestPrefixCacheEvictionRecycling(t *testing.T) {
	m := newTestTable(t, 507).CloneForServing().memo
	m.budget = 4
	for i := 0; i < m.budget; i++ {
		s := m.claimSlot()
		m.slotOf[i] = int32(s + 1)
		m.key[s] = i
		m.lastUse[s] = m.seq
	}
	if len(m.key) != m.budget {
		t.Fatalf("allocated %d slots, want %d", len(m.key), m.budget)
	}
	// Next batch touches one old prefix and one new: the new prefix must
	// recycle an idle slot, not grow the arrays.
	m.seq++
	m.lastUse[m.slotOf[0]-1] = m.seq
	s := m.claimSlot()
	if len(m.key) != m.budget {
		t.Fatalf("claimSlot grew to %d slots at budget with idle slots available", len(m.key))
	}
	if m.lastUse[s] == m.seq {
		t.Fatal("claimSlot recycled a slot live in the current batch")
	}
	// All slots live this batch: growth past budget is the documented
	// escape hatch.
	for i := range m.lastUse {
		m.lastUse[i] = m.seq
	}
	if s := m.claimSlot(); s != m.budget {
		t.Fatalf("expected growth slot %d when all slots are live, got %d", m.budget, s)
	}
}

// TestPrefixMemoGrowsByQuarterToBudget pins growBuf's steps: a quarter of
// the rows (at least 64), stopping at the budget while under it and going
// past it only when every slot is live, with memoised rows kept bit for bit.
func TestPrefixMemoGrowsByQuarterToBudget(t *testing.T) {
	m := newTestTable(t, 509).CloneForServing().memo
	m.budget = 700
	var rows []int
	for len(m.key) < m.budget {
		s := m.claimSlot()
		m.lastUse[s] = m.seq
		m.buf.Row(s)[0] = float32(s)
		if len(rows) == 0 || rows[len(rows)-1] != m.buf.Rows {
			rows = append(rows, m.buf.Rows)
		}
	}
	m.claimSlot() // every slot is live this batch: grows past the budget
	rows = append(rows, m.buf.Rows)
	if want := []int{64, 128, 192, 256, 320, 400, 500, 625, 700, 875}; fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("buffer rows %v, want %v", rows, want)
	}
	for s := 0; s < m.budget; s++ {
		if got := m.buf.Row(s)[0]; got != float32(s) {
			t.Fatalf("slot %d holds %v after growth, want %d", s, got, s)
		}
	}
}

// TestCloneMemoOverflowMatchesSourceForward: over a recurring skewed stream
// whose working set overflows a shrunken budget — hits, recycling and
// growth past the budget all occur — every clone Lookup equals the source
// table's fresh-cache forward bit for bit.
func TestCloneMemoOverflowMatchesSourceForward(t *testing.T) {
	tbl, _, _ := cloneTestTable(t) // 256 prefixes
	clone := tbl.CloneForServing()
	clone.memo.budget = 16
	hits, misses := cacheCounters(clone)

	r := tensor.NewRNG(520)
	recycled, grewPastBudget := false, false
	for step := 0; step < 60; step++ {
		batch := 4 + 28*(step%3) // small batches fit the budget, large ones overflow it alone
		indices := make([]int, batch)
		offsets := make([]int, batch)
		for i := range indices {
			// Zipf-like: a few hot rows recur every batch, the tail wanders.
			indices[i] = int(float64(tbl.NumRows()) * math.Pow(r.Float64(), 4))
			offsets[i] = i
		}
		slots, missed := len(clone.memo.key), misses.Value()
		want, _ := tbl.forward(indices, offsets)
		requireSameBits(t, fmt.Sprintf("step %d", step), clone.Lookup(indices, offsets), want)
		if slots >= clone.memo.budget && misses.Value() > missed {
			if len(clone.memo.key) > slots {
				grewPastBudget = true
			} else {
				recycled = true
			}
		}
	}
	if hits.Value() == 0 || misses.Value() <= int64(clone.memo.budget) {
		t.Fatalf("stream exercised no reuse or no recycling: hits=%d misses=%d budget=%d", hits.Value(), misses.Value(), clone.memo.budget)
	}
	if !recycled || !grewPastBudget {
		t.Fatalf("stream missed a claimSlot regime: recycled=%v grewPastBudget=%v", recycled, grewPastBudget)
	}
}

// TestTrainableTableRunsBatchLocalBuffer: a trainable table keeps no product
// across batches — it has no memo, records no memo traffic, and its arena
// reuse buffer holds exactly the current batch's unique prefixes, in storage
// sized to the batches, not to a memo.
func TestTrainableTableRunsBatchLocalBuffer(t *testing.T) {
	tbl := newTestTable(t, 530)
	hits, misses := cacheCounters(tbl)
	r := tensor.NewRNG(531)
	maxUnique := 0
	for step := 0; step < 12; step++ {
		indices, offsets := randomBatch(r, tbl.NumRows(), 2+step, 4)
		unique := map[int]bool{}
		for _, idx := range indices {
			unique[tbl.Shape.prefix(idx)] = true
		}
		maxUnique = max(maxUnique, len(unique))
		out := tbl.Lookup(indices, offsets)
		if got := tbl.arena.PrefixBuf.Rows; got != len(unique) {
			t.Fatalf("step %d: arena reuse buffer holds %d rows, batch has %d unique prefixes", step, got, len(unique))
		}
		tbl.Update(indices, offsets, out.Clone(), 0.01)
	}
	if tbl.memo != nil {
		t.Fatal("a trainable table built a prefix memo")
	}
	if h, m := hits.Value(), misses.Value(); h+m != 0 {
		t.Fatalf("trainable table recorded memo traffic: hits=%d misses=%d", h, m)
	}
	// Storage follows the batches: the largest one's unique prefixes plus
	// growInts' quarter of headroom, never a memo's budget.
	if got := cap(tbl.arena.PrefixBuf.Data) / tbl.Shape.prefixSize(); got > tensor.Headroom(maxUnique, maxUnique*2) {
		t.Fatalf("arena reuse buffer has room for %d prefixes, the largest batch had %d", got, maxUnique)
	}
}

// TestArenaTrainingMatchesFreshCacheTraining: the serialized arena path
// (Lookup/Update, scratch reused across batches) is the same computation as
// the fresh-cache path (forward/backward) — after several steps the cores
// are bit-identical, for 1, 2 and 4 workers, fused and unfused, SGD and
// Adagrad.
func TestArenaTrainingMatchesFreshCacheTraining(t *testing.T) {
	old := tensor.Workers()
	defer tensor.SetMaxWorkers(old)
	indices, offsets := sharedSliceBatches(41, 6)
	for _, workers := range []int{1, 2, 4} {
		tensor.SetMaxWorkers(workers)
		for _, fused := range []bool{true, false} {
			for _, adagrad := range []bool{false, true} {
				newTbl := func() *Table {
					tbl := newTestTable(t, 42)
					tbl.Opts.FusedUpdate = fused
					if adagrad {
						tbl.EnableAdagrad()
					}
					return tbl
				}
				arena := trainSteps(newTbl(), indices, offsets, 0.05)
				fresh := newTbl()
				for s := range indices {
					out, cache := fresh.forward(indices[s], offsets[s])
					fresh.backward(cache, out.Clone(), 0.05)
				}
				for k := 0; k < Dims; k++ {
					if d := arena.Cores[k].MaxAbsDiff(fresh.Cores[k]); d != 0 {
						t.Errorf("workers=%d fused=%v adagrad=%v: core %d differs by %v between arena and fresh-cache training", workers, fused, adagrad, k, d)
					}
				}
			}
		}
	}
}
