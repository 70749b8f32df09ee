package tt

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// checkUniq runs one key set through u and through a map reference: same id
// for every key, ids handed out 0, 1, 2, … in first-occurrence order, fresh
// reported exactly on first sight.
func checkUniq(t *testing.T, name string, u *uniq, keys []int) {
	t.Helper()
	u.begin(len(keys))
	if len(u.key) < 2*len(keys) || len(u.key)&(len(u.key)-1) != 0 {
		t.Fatalf("%s: %d slots for %d keys, want a power of two ≥ 2n", name, len(u.key), len(keys))
	}
	ref := map[int]int{}
	for p, k := range keys {
		want, seen := ref[k]
		next := len(ref)
		if !seen {
			want, ref[k] = next, next
		}
		got, fresh := u.idOf(k, next)
		if got != want || fresh == seen {
			t.Fatalf("%s: key %d at position %d: id %d fresh %v, want id %d fresh %v", name, k, p, got, fresh, want, !seen)
		}
	}
}

func TestUniqMatchesMapReference(t *testing.T) {
	r := tensor.NewRNG(900)
	seq := func(n int, f func(i int) int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = f(i)
		}
		return keys
	}
	sets := []struct {
		name string
		keys []int
	}{
		{"empty", nil},
		{"one", []int{7}},
		{"all equal", seq(100, func(int) int { return 42 })},
		{"all distinct", seq(300, func(i int) int { return i })},
		{"duplicates", seq(500, func(int) int { return r.Intn(60) })},
		{"same low bits", seq(200, func(i int) int { return i<<20 | 5 })},
		{"multiples of the table length", seq(200, func(i int) int { return (i % 90) * 1024 })},
		{"large keys", seq(200, func(int) int { return math.MaxInt - r.Intn(50) })},
		{"zero key", []int{0, 3, 0, 0, 3, 1}},
	}
	// One table through every set in both orders: each set sees whatever the
	// earlier ones left behind (stale stamps, a table larger than it needs).
	var u uniq
	for _, s := range sets {
		checkUniq(t, s.name, &u, s.keys)
	}
	for i := len(sets) - 1; i >= 0; i-- {
		checkUniq(t, sets[i].name+" (reverse pass)", &u, sets[i].keys)
	}
	// And each on a table of its own, sized to it alone.
	for _, s := range sets {
		checkUniq(t, s.name+" (own table)", &uniq{}, s.keys)
	}
}

func TestUniqLargeThenSmallThenLarge(t *testing.T) {
	var u uniq
	r := tensor.NewRNG(901)
	draw := func(n, space int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = r.Intn(space)
		}
		return keys
	}
	checkUniq(t, "large", &u, draw(4000, 1000))
	grown := len(u.key)
	for round := 0; round < 5; round++ {
		checkUniq(t, "small after large", &u, draw(8, 1000))
		if len(u.key) != grown {
			t.Fatalf("a small batch resized the table: %d → %d slots", grown, len(u.key))
		}
	}
	checkUniq(t, "large again", &u, draw(4000, 1000))
	checkUniq(t, "larger: growth", &u, draw(9000, 100000))
	if len(u.key) <= grown {
		t.Fatalf("table did not grow for a larger batch: %d slots", len(u.key))
	}
	checkUniq(t, "small after growth", &u, draw(8, 1000))
}

// TestUniqGenerationWrap forces the 32-bit generation over its wrap: slots
// stamped by early generations must not read as live afterwards.
func TestUniqGenerationWrap(t *testing.T) {
	var u uniq
	keys := []int{5, 9, 5, 1, 9, 33}
	checkUniq(t, "generation 1", &u, keys) // stamps slots with gen 1
	u.gen = math.MaxUint32 - 1
	checkUniq(t, "last generation", &u, keys)
	if u.gen != math.MaxUint32 {
		t.Fatalf("gen = %d, want %d", u.gen, uint32(math.MaxUint32))
	}
	checkUniq(t, "wrap", &u, []int{9, 9, 2}) // would be gen 0: clears, restarts at 1
	if u.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", u.gen)
	}
	checkUniq(t, "after wrap", &u, keys)
}

// hugeTable is a table past every size the stamped dedup used to cap at
// (1<<22 rows, 1<<22 prefixes): 2²³ rows over a padded 2²³-prefix space whose
// cores still total under 100 KB.
func hugeTable(t *testing.T) *Table {
	t.Helper()
	s, err := NewShapeExplicit(1<<23, 4, [Dims]int{4096, 2048, 2}, [Dims]int{1, 2, 2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPrefixes() <= prefixDenseCap {
		t.Fatalf("%d prefixes: not past prefixDenseCap", s.NumPrefixes())
	}
	return NewTable(s, tensor.NewRNG(910), 0.1)
}

// TestHugeTableLookupUpdateZeroAllocBatchSizedScratch: on a table of 2²³
// rows the steady-state step allocates nothing and the dedup scratch is sized
// to the batch — no per-row or per-prefix array, no allocating fallback.
func TestHugeTableLookupUpdateZeroAllocBatchSizedScratch(t *testing.T) {
	serialWorkers(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tbl := hugeTable(t)
	indices, offsets := randomBatch(tensor.NewRNG(911), tbl.NumRows(), 64, 4)
	dOut := tensor.New(len(offsets), tbl.Dim())
	for i := 0; i < 3; i++ {
		trainOneStep(tbl, indices, offsets, dOut, 0.01)
	}
	if allocs := testing.AllocsPerRun(20, func() { trainOneStep(tbl, indices, offsets, dOut, 0.01) }); allocs != 0 {
		t.Fatalf("steady-state step on a 2²³-row table allocated %v times, want 0", allocs)
	}
	if got := len(tbl.arena.seen.key); got > 4*len(indices) {
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
// bit what Forward+Backward of B does — not on the arena's leftovers of A.
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

			_, cache := want.Forward(idxB, offB)
			want.Backward(cache, dOut, 0.05)
			for k := 0; k < Dims; k++ {
				requireSameBits(t, "core after mismatched Update", got.Cores[k], want.Cores[k])
			}
		}
	}
}
