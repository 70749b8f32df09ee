package tt

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/workertest"
)

// hugeTable is a table past every size the stamped dedup used to cap at
// (1<<22 rows, 1<<22 prefixes): 2²³ rows over a padded 2²³-prefix space whose
// cores still total under 100 KB.
func hugeTable(t *testing.T) *Table {
	t.Helper()
	s, err := NewShapeExplicit(1<<23, 4, [Dims]int{4096, 2048, 2}, [Dims]int{1, 2, 2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.numPrefixes() <= prefixDenseCap {
		t.Fatalf("%d prefixes: not past prefixDenseCap", s.numPrefixes())
	}
	return NewTable(s, tensor.NewRNG(910), 0.1)
}

// TestHugeTableLookupUpdateZeroAllocBatchSizedScratch: on a table of 2²³
// rows the steady-state step allocates nothing and the dedup scratch is sized
// to the batch — no per-row or per-prefix array, no allocating fallback.
func TestHugeTableLookupUpdateZeroAllocBatchSizedScratch(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tbl := hugeTable(t)
	indices, offsets := randomBatch(tensor.NewRNG(911), tbl.NumRows(), 64, 4)
	dOut := tensor.New(len(offsets), tbl.Dim())
	workertest.Each(t, func(workers int) {
		for i := 0; i < 3; i++ {
			trainOneStep(tbl, indices, offsets, dOut, 0.01)
		}
		if allocs := testing.AllocsPerRun(20, func() { trainOneStep(tbl, indices, offsets, dOut, 0.01) }); allocs != 0 {
			t.Fatalf("steady-state step on a 2²³-row table allocated %v times at %d workers, want 0", allocs, workers)
		}
	})
	if got := tbl.arena.seen.Slots(); got > 4*len(indices) {
		t.Fatalf("dedup table has %d slots for a batch of %d indices, want ≤ %d", got, len(indices), 4*len(indices))
	}

	// The rows are right too: sample 0 against the single-row reference.
	out := tbl.Lookup(indices, offsets)
	want, row := make([]float32, tbl.Dim()), make([]float32, tbl.Dim())
	for _, idx := range indices[offsets[0]:offsets[1]] {
		tbl.LookupRow(idx, row)
		tensor.AddTo(want, row)
	}
	for j, w := range want {
		if math.Abs(float64(out.At(0, j)-w)) > 1e-5 {
			t.Fatalf("sample 0 col %d: %v vs %v", j, out.At(0, j), w)
		}
	}

	// A serving clone of it has no memo (its prefix→slot map would be per
	// prefix) and runs the same batch-local path.
	clone := tbl.CloneForServing()
	if clone.memo.slotOf != nil {
		t.Fatal("clone of a table past prefixDenseCap built a per-prefix memo index")
	}
	requireSameBits(t, "clone lookup", clone.Lookup(indices, offsets), tbl.Lookup(indices, offsets))
}

// TestUpdateAfterLookupOfDifferentBatch: Update describes batch B after a
// Lookup of batch A (or after no Lookup at all). It must train on B — bit for
// bit what forward+backward of B does — not on the arena's leftovers of A.
func TestUpdateAfterLookupOfDifferentBatch(t *testing.T) {
	r := tensor.NewRNG(920)
	for _, opts := range []Options{
		EffOptions(),
		{ReusePrefix: true, InAdvanceAgg: true, FusedUpdate: true}, // backward dedups rows itself
		{DedupIndices: true, InAdvanceAgg: true},                   // no reuse buffer, unfused
	} {
		got, want := newTestTable(t, 921), newTestTable(t, 921)
		got.Opts, want.Opts = opts, opts
		for step := 0; step < 4; step++ {
			idxA, offA := randomBatch(r, got.NumRows(), 24, 4) // larger: leaves more behind
			idxB, offB := randomBatch(r, got.NumRows(), 9, 3)
			dOut := tensor.New(len(offB), got.Dim())
			r.FillNormal(dOut.Data, 1)

			if step > 0 { // step 0: Update with no Lookup before it
				got.Lookup(idxA, offA)
			}
			got.Update(idxB, offB, dOut, 0.05)

			_, cache := want.forward(idxB, offB)
			want.backward(cache, dOut, 0.05)
			for k := 0; k < Dims; k++ {
				requireSameBits(t, "core after mismatched Update", got.Cores[k], want.Cores[k])
			}
		}
	}
}
