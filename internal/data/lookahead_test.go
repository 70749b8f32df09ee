package data

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/embedding"
)

// lookaheadTestSpec is a small multi-table spec with enough reuse (tight
// id space, high locality) that windows exercise pinning, next-use linking,
// and Belady eviction on real Zipf-skewed streams.
func lookaheadTestSpec() Spec {
	return Spec{
		Name:         "lookahead-test",
		NumDense:     4,
		TableRows:    []int{500, 120, 2000},
		ZipfS:        1.2,
		ZipfV:        1.5,
		GroupSize:    16,
		ActiveGroups: 4,
		Locality:     0.8,
		Samples:      1 << 20,
		Seed:         991,
	}
}

// fixedSource is a canned SparseSource over explicit per-batch id streams:
// ids[iter][table]. It allocates nothing per call, which also makes it the
// subject of the steady-state allocation test.
type fixedSource struct {
	ids [][][]int
}

func (f *fixedSource) BatchIndices(iter, size, table int) []int {
	return f.ids[iter][table]
}

// planOver builds a planner over a fixedSource covering every table in ids
// with the given per-table row bound and pin budget, and plans one full
// window from iteration 0.
func planOver(t *testing.T, ids [][][]int, rows, budget int) *WindowPlan {
	t.Helper()
	nt := len(ids[0])
	cfg := LookaheadConfig{Window: len(ids), Batch: 1, Budget: budget}
	for ti := 0; ti < nt; ti++ {
		cfg.Tables = append(cfg.Tables, ti)
		cfg.Rows = append(cfg.Rows, rows)
	}
	la, err := NewLookahead(&fixedSource{ids: ids}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return la.Advance(0, len(ids))
}

// refPin is one entry of the reference planner's pinned list.
type refPin struct {
	id, fromJ, fromSlot int
	next                int32
}

// refPlanTable is the brute-force reference planner for one table's window:
// map dedup, next use by scanning the later streams, and the pinning
// simulation over a list searched linearly. Only the list's order is shared
// with the planner, because the Belady tie-break (first farthest pin in list
// order, swap-removal on unpin) is part of the planned bits.
func refPlanTable(streams [][]int, start, budget int) []BatchAccess {
	accs := make([]BatchAccess, len(streams))
	for j, ids := range streams {
		acc := &accs[j]
		pos := map[int]int{}
		for _, id := range ids {
			u, ok := pos[id]
			if !ok {
				u = len(acc.Uniq)
				pos[id] = u
				acc.Uniq = append(acc.Uniq, id)
			}
			acc.Inverse = append(acc.Inverse, u)
		}
		acc.Fresh = make([]bool, len(acc.Uniq))
		acc.NextUse = make([]int32, len(acc.Uniq))
		for i, id := range acc.Uniq {
			acc.NextUse[i] = -1
			for k := j + 1; k < len(streams); k++ {
				if containsInt(streams[k], id) {
					acc.NextUse[i] = int32(start + k)
					break
				}
			}
		}
	}
	var pins []refPin
	unpin := func(at int) {
		pins[at] = pins[len(pins)-1]
		pins = pins[:len(pins)-1]
	}
	for j := range accs {
		acc := &accs[j]
		for i, id := range acc.Uniq {
			acc.Fresh[i] = true
			for at, p := range pins {
				if p.id == id {
					acc.Fresh[i] = false
					unpin(at)
					break
				}
			}
			if acc.NextUse[i] >= 0 {
				pins = append(pins, refPin{id: id, fromJ: j, fromSlot: i, next: acc.NextUse[i]})
				if budget > 0 && len(pins) > budget {
					far := 0
					for at := range pins {
						if pins[at].next > pins[far].next {
							far = at
						}
					}
					accs[pins[far].fromJ].NextUse[pins[far].fromSlot] = -1
					unpin(far)
				}
			}
			if acc.Fresh[i] {
				acc.FreshIDs = append(acc.FreshIDs, id)
				acc.FreshPos = append(acc.FreshPos, i)
			}
		}
	}
	return accs
}

// TestLookaheadPlanEquivalence checks every field of every planned window
// against the brute-force reference planner: Uniq/Inverse must equal
// embedding.Unique of the index stream, Fresh must mark the uses no live pin
// serves (with an unlimited budget, exactly the first in-window use of each
// row), NextUse must link to the next batch using the row unless Belady
// evicted the promise, and FreshIDs/FreshPos must be the Fresh subset in
// order. Each input runs all its windows on one planner, so every table and
// window sees the scratch the ones before it left behind.
func TestLookaheadPlanEquivalence(t *testing.T) {
	d, err := New(lookaheadTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	type window struct{ start, n int }
	ramp := []window{{0, 2}, {2, 4}, {6, 8}, {14, 16}, {30, 16}, {46, 5}}
	inputs := []struct {
		name    string
		src     SparseSource // nil: the dataset's streams spread over rows
		rows    []int
		window  int
		batch   int
		budget  int
		windows []window
	}{
		// Windows need not start at iteration 0; the second starts where the
		// first ended, and rows carried over must gather fresh again.
		{"dataset", d, d.Spec.TableRows, 6, 32, 0, []window{{3, 6}, {9, 6}}},
		{"large table then tiny then large", nil, []int{1 << 40, 3, 1 << 33}, 6, 32, 0, []window{{0, 6}, {6, 6}}},
		{"tiny table then large then tiny", nil, []int{2, 1 << 40, 5}, 6, 32, 7, []window{{0, 6}, {6, 6}}},
		// The pipeline's ramp: windows double up to the configured size, and
		// the run's tail is truncated.
		{"ramp and tail", d, d.Spec.TableRows, 16, 8, 0, ramp},
		{"ramp and tail under a budget", d, d.Spec.TableRows, 16, 8, 12, ramp},
		// Every row of batch 0 recurs in batch 1: all promises carry the same
		// next use, so each eviction is decided by the tie-break alone, and
		// the swap-removals of batch 1 reorder the list before batch 2's ties.
		{"budget forces equal-next-use ties", &fixedSource{ids: [][][]int{
			{{1, 2, 3, 4, 5, 6}}, {{6, 5, 4, 3, 2, 1, 7}}, {{7, 1, 2, 3, 4, 5, 6}}, {{2, 4, 6, 7}},
		}}, []int{8}, 4, 1, 3, []window{{0, 4}, {0, 3}}},
	}
	for _, in := range inputs {
		if in.src == nil {
			in.src = &spreadSource{d: d, rows: in.rows}
		}
		cfg := LookaheadConfig{Window: in.window, Batch: in.batch, Rows: in.rows, Budget: in.budget}
		for ti := range in.rows {
			cfg.Tables = append(cfg.Tables, ti)
		}
		la, err := NewLookahead(in.src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range in.windows {
			plan := la.Advance(w.start, w.n)
			if plan.Start != w.start || plan.N != w.n {
				t.Fatalf("%s: plan covers [%d,%d), want [%d,%d)", in.name, plan.Start, plan.Start+plan.N, w.start, w.start+w.n)
			}
			for ti := range in.rows {
				streams := make([][]int, w.n)
				for j := range streams {
					streams[j] = in.src.BatchIndices(w.start+j, in.batch, ti)
				}
				want := refPlanTable(streams, w.start, in.budget)
				seen := map[int]bool{}
				for j := range streams {
					at := fmt.Sprintf("%s: window [%d,%d) table %d iter %d", in.name, w.start, w.start+w.n, ti, w.start+j)
					acc, ref := plan.Access(ti, w.start+j), &want[j]
					uniq, inverse := embedding.Unique(streams[j])
					if !equalInts(acc.Uniq, uniq) || !equalInts(acc.Inverse, inverse) {
						t.Fatalf("%s: Uniq/Inverse disagree with embedding.Unique", at)
					}
					if !equalInts(acc.Uniq, ref.Uniq) || !equalInts(acc.Inverse, ref.Inverse) ||
						!slices.Equal(acc.Fresh, ref.Fresh) || !slices.Equal(acc.NextUse, ref.NextUse) ||
						!equalInts(acc.FreshIDs, ref.FreshIDs) || !equalInts(acc.FreshPos, ref.FreshPos) {
						t.Fatalf("%s: planned\n%+v\nreference\n%+v", at, *acc, *ref)
					}
					if in.budget != 0 {
						continue
					}
					for i, id := range uniq {
						if acc.Fresh[i] == seen[id] {
							t.Fatalf("%s row %d: Fresh=%v, want %v (first window use)", at, id, acc.Fresh[i], !seen[id])
						}
						seen[id] = true
					}
				}
			}
			plan.Release()
		}
	}
}

// spreadSource maps the test dataset's small id spaces onto tables of any
// size, so a huge table and a tiny one can follow each other through the
// planner: table t's ids are scaled to span rows[t], or folded into it.
type spreadSource struct {
	d    *Dataset
	rows []int
}

func (s *spreadSource) BatchIndices(iter, size, table int) []int {
	src := s.d.BatchIndices(iter, size, table)
	have, want := s.d.Spec.TableRows[table], s.rows[table]
	ids := make([]int, len(src))
	for i, id := range src {
		if want >= have {
			ids[i] = id * (want / have)
		} else {
			ids[i] = id % want
		}
	}
	return ids
}

// TestLookaheadBeladyEviction is the table-driven oracle-eviction test: when
// the pin budget overflows, the planner must drop the pin whose next use is
// farthest in the future (or rewrite nothing when capacity suffices), and
// the victim's later accesses must come back as fresh gathers.
func TestLookaheadBeladyEviction(t *testing.T) {
	cases := []struct {
		name   string
		ids    [][]int // batch → stream of one table
		budget int
		// wantFresh[j] lists the expected Fresh flags of batch j's uniq rows.
		wantFresh [][]bool
		// wantNext[j] lists the expected (post-rewrite) NextUse values.
		wantNext [][]int32
	}{
		{
			// Row 1 next used at iter 1 (near), row 2 at iter 3 (far). With
			// budget 1 the batch-0 pin of row 2 is Belady's victim: its
			// NextUse is rewritten to -1 and iter 3 gathers it fresh.
			name:      "farthest-next-use evicted",
			ids:       [][]int{{1, 2}, {1}, {}, {2}},
			budget:    1,
			wantFresh: [][]bool{{true, true}, {false}, {}, {true}},
			wantNext:  [][]int32{{1, -1}, {-1}, {}, {-1}},
		},
		{
			// Same streams, budget 2: both pins fit, nothing is evicted.
			name:      "no eviction under budget",
			ids:       [][]int{{1, 2}, {1}, {}, {2}},
			budget:    2,
			wantFresh: [][]bool{{true, true}, {false}, {}, {false}},
			wantNext:  [][]int32{{1, 3}, {-1}, {}, {-1}},
		},
		{
			// Unlimited budget (0): every reuse is served from the pin set.
			name:      "unlimited budget pins everything",
			ids:       [][]int{{1, 2, 3}, {3, 1}, {2}},
			budget:    0,
			wantFresh: [][]bool{{true, true, true}, {false, false}, {false}},
			wantNext:  [][]int32{{1, 2, 1}, {-1, -1}, {-1}},
		},
		{
			// A row with NO future use never pins, so it cannot displace a
			// row that does recur.
			name:      "no-future-use row takes no budget",
			ids:       [][]int{{7, 8}, {8}},
			budget:    1,
			wantFresh: [][]bool{{true, true}, {false}},
			wantNext:  [][]int32{{-1, 1}, {-1}},
		},
		{
			// Tie on next use: eviction is deterministic (first-listed max),
			// and exactly one of the two promises survives.
			name:      "deterministic tie break",
			ids:       [][]int{{4, 5}, {4, 5}},
			budget:    1,
			wantFresh: [][]bool{{true, true}, {true, false}},
			wantNext:  [][]int32{{-1, 1}, {-1, -1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ids := make([][][]int, len(tc.ids))
			for j := range tc.ids {
				ids[j] = [][]int{tc.ids[j]}
			}
			plan := planOver(t, ids, 16, tc.budget)
			defer plan.Release()
			for j := range tc.ids {
				acc := plan.Access(0, j)
				if len(acc.Fresh) != len(tc.wantFresh[j]) {
					t.Fatalf("iter %d: %d uniq rows, want %d", j, len(acc.Fresh), len(tc.wantFresh[j]))
				}
				for i := range acc.Fresh {
					if acc.Fresh[i] != tc.wantFresh[j][i] {
						t.Errorf("iter %d slot %d (row %d): Fresh=%v, want %v",
							j, i, acc.Uniq[i], acc.Fresh[i], tc.wantFresh[j][i])
					}
					if acc.NextUse[i] != tc.wantNext[j][i] {
						t.Errorf("iter %d slot %d (row %d): NextUse=%d, want %d",
							j, i, acc.Uniq[i], acc.NextUse[i], tc.wantNext[j][i])
					}
				}
			}
		})
	}
}

// TestLookaheadWindowBoundary pins the window-edge contract: a row whose
// last reference is the final batch of the window carries NextUse=-1 there
// (its cache entry may expire with ordinary push-visibility), and the same
// row in the next window is planned as a fresh gather — no promise crosses
// the boundary.
func TestLookaheadWindowBoundary(t *testing.T) {
	// Row 9 is used in every batch of both windows; row 3 only at the edges.
	// Batches 3-5 back the second window.
	ids := [][][]int{
		{{9, 3}}, {{9}}, {{9, 3}},
		{{9, 3}}, {{9}}, {{9, 3}},
	}
	la, err := NewLookahead(&fixedSource{ids: ids}, LookaheadConfig{
		Window: 3, Batch: 1, Tables: []int{0}, Rows: []int{16},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := la.Advance(0, 3)
	edge := plan.Access(0, 2)
	for i, id := range edge.Uniq {
		if edge.NextUse[i] != -1 {
			t.Errorf("window-edge access of row %d promises NextUse=%d, want -1", id, edge.NextUse[i])
		}
	}
	// Both rows were pinned by earlier batches; their last references land
	// exactly on the window edge and are served from the pin set.
	if edge.Fresh[0] || edge.Fresh[1] {
		t.Errorf("edge batch: Fresh=%v, want both rows served from pins", edge.Fresh)
	}
	plan.Release()

	// Next window reuses the same streams: everything in its first batch is
	// fresh even though the previous window pinned row 9 throughout.
	plan2 := la.Advance(3, 3)
	first := plan2.Access(0, 3)
	for i, id := range first.Uniq {
		if !first.Fresh[i] {
			t.Errorf("row %d carried a pin across the window boundary", id)
		}
	}
	plan2.Release()
}

// TestLookaheadShortWindow covers the tail of a run: Advance with n smaller
// than the configured window plans only the remaining batches.
func TestLookaheadShortWindow(t *testing.T) {
	ids := [][][]int{{{1, 2}}, {{2}}, {{1}}, {{2}}}
	la, err := NewLookahead(&fixedSource{ids: ids}, LookaheadConfig{
		Window: 4, Batch: 1, Tables: []int{0}, Rows: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := la.Advance(0, 2) // only batches 0 and 1 remain
	if plan.N != 2 {
		t.Fatalf("plan.N = %d, want 2", plan.N)
	}
	acc := plan.Access(0, 0)
	// Row 1's next use (iter 2) is outside the short window: no promise.
	if acc.NextUse[0] != -1 {
		t.Errorf("row 1 NextUse=%d, want -1 (next use beyond plan)", acc.NextUse[0])
	}
	if acc.NextUse[1] != 1 {
		t.Errorf("row 2 NextUse=%d, want 1", acc.NextUse[1])
	}
	plan.Release()
}

// TestLookaheadFallbackSource exercises the full-batch fallback: a source
// without BatchIndices gets its batches generated at plan time, cached on
// the plan, and the planned access sets match the cached batches.
func TestLookaheadFallbackSource(t *testing.T) {
	d, err := New(lookaheadTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	la, err := NewLookahead(batchOnly{d}, LookaheadConfig{
		Window: 3, Batch: 8, Tables: []int{1}, Rows: []int{d.Spec.TableRows[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := la.Advance(0, 3)
	for j := 0; j < 3; j++ {
		b := plan.BatchAt(j)
		if b == nil {
			t.Fatalf("fallback plan cached no batch for iter %d", j)
		}
		uniq, _ := embedding.Unique(b.Sparse[1])
		if !equalInts(plan.Access(0, j).Uniq, uniq) {
			t.Fatalf("iter %d: plan Uniq disagrees with cached batch", j)
		}
	}
	plan.Release()
}

// batchOnly hides Dataset.BatchIndices so only the fallback interface shows.
type batchOnly struct{ d *Dataset }

func (b batchOnly) Batch(iter, size int) *Batch { return b.d.Batch(iter, size) }

// TestLookaheadConfigValidation covers NewLookahead's error paths.
func TestLookaheadConfigValidation(t *testing.T) {
	src := &fixedSource{ids: [][][]int{{{0}}, {{0}}}}
	bad := []LookaheadConfig{
		{Window: 1, Batch: 1},                                   // window too small
		{Window: 2, Batch: 0},                                   // no batch size
		{Window: 2, Batch: 1, Tables: []int{0}},                 // rows missing
		{Window: 2, Batch: 1, Tables: []int{0}, Rows: []int{0}}, // non-positive rows
	}
	for i, cfg := range bad {
		if _, err := NewLookahead(src, cfg); err == nil {
			t.Errorf("config %d: expected an error", i)
		}
	}
	if _, err := NewLookahead(struct{}{}, LookaheadConfig{Window: 2, Batch: 1}); err == nil {
		t.Error("expected an error for a source with neither interface")
	}
}

// TestLookaheadZeroAllocSteadyState enforces the hot-path contract checked
// statically by the hotalloc analyzer: once plan storage has grown to the
// working set, Advance+Release over a non-allocating source performs zero
// heap allocations per window. What it does allocate until then follows the
// window, not the table: the third table declares 2²⁶ rows and its ids span
// them, and building the planner plus the first window stays within a few
// hundred bytes per planned id.
func TestLookaheadZeroAllocSteadyState(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	d, err := New(lookaheadTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	const (
		window   = 4
		batch    = 16
		rounds   = 6
		hugeRows = 1 << 26
	)
	// Freeze the dataset's streams into a canned source: index generation is
	// the dataset's cost, not the planner's.
	stretch := hugeRows / d.Spec.TableRows[2]
	ids := make([][][]int, window*rounds)
	for j := range ids {
		ids[j] = make([][]int, len(d.Spec.TableRows))
		for ti := range ids[j] {
			ids[j][ti] = d.BatchIndices(j, batch, ti)
		}
		for i := range ids[j][2] {
			ids[j][2][i] *= stretch
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	la, err := NewLookahead(&fixedSource{ids: ids}, LookaheadConfig{
		Window: window,
		Batch:  batch,
		Tables: []int{0, 1, 2},
		Rows:   []int{d.Spec.TableRows[0], d.Spec.TableRows[1], hugeRows},
		Budget: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	la.Advance(0, window).Release()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(512*3*window*batch); got > limit {
		t.Fatalf("planner and first window allocated %d bytes for %d planned ids over a 2²⁶-row table, want ≤ %d", got, 3*window*batch, limit)
	}
	// Warmup over every window position grows uniq/pin storage to the full
	// working set.
	for r := 0; r < 2; r++ {
		for j := 0; j+window <= len(ids); j += window {
			la.Advance(j, window).Release()
		}
	}
	pos := 0
	allocs := testing.AllocsPerRun(rounds*2, func() {
		la.Advance(pos, window).Release()
		pos += window
		if pos+window > len(ids) {
			pos = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Advance allocated %v times per window, want 0", allocs)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
