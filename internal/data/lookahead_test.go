package data

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/embedding"
)

// lookaheadTestSpec is a small multi-table spec with enough reuse (tight
// id space, high locality) that windows exercise pinning and next-use
// linking on real Zipf-skewed streams.
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

// fixedSource is a canned sparseSource over explicit per-batch id streams:
// ids[iter][table], returned as they are (dst and the generator go unused).
// It allocates nothing per call, which also makes it the subject of the
// steady-state allocation test.
type fixedSource struct {
	ids [][][]int
}

func (f *fixedSource) IndicesInto(_ *Generator, _ []int, iter, size, table int) []int {
	return f.ids[iter][table]
}

// refPlanTable is the brute-force reference planner for one table's window,
// written from the definitions: map dedup per batch, Fresh when no earlier
// batch of the window uses the row, and NextUse by scanning the later
// streams.
func refPlanTable(streams [][]int, start int) []BatchAccess {
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
			acc.Fresh[i] = true
			for k := 0; k < j; k++ {
				if containsInt(streams[k], id) {
					acc.Fresh[i] = false
					break
				}
			}
			if acc.Fresh[i] {
				acc.FreshIDs = append(acc.FreshIDs, id)
				acc.FreshPos = append(acc.FreshPos, i)
			}
			acc.NextUse[i] = -1
			for k := j + 1; k < len(streams); k++ {
				if containsInt(streams[k], id) {
					acc.NextUse[i] = int32(start + k)
					break
				}
			}
		}
	}
	return accs
}

// checkPlanAgainstReference compares every field of table ti's planned
// accesses over [start, start+len(streams)) with the reference planner and
// embedding.Unique.
func checkPlanAgainstReference(t *testing.T, name string, plan *WindowPlan, ti int, streams [][]int) {
	t.Helper()
	start := plan.Start
	want := refPlanTable(streams, start)
	for j := range streams {
		at := fmt.Sprintf("%s: window [%d,%d) table %d iter %d", name, start, start+plan.N, ti, start+j)
		acc, ref := plan.Access(ti, start+j), &want[j]
		uniq, inverse := embedding.Unique(streams[j])
		if !equalInts(acc.Uniq, uniq) || !equalInts(acc.Inverse, inverse) {
			t.Fatalf("%s: Uniq/Inverse disagree with embedding.Unique", at)
		}
		if !equalInts(acc.Uniq, ref.Uniq) || !equalInts(acc.Inverse, ref.Inverse) ||
			!slices.Equal(acc.Fresh, ref.Fresh) || !slices.Equal(acc.NextUse, ref.NextUse) ||
			!equalInts(acc.FreshIDs, ref.FreshIDs) || !equalInts(acc.FreshPos, ref.FreshPos) {
			t.Fatalf("%s: planned\n%+v\nreference\n%+v", at, *acc, *ref)
		}
	}
}

// TestLookaheadPlanEquivalence checks every field of every planned window
// against the brute-force reference planner: Uniq/Inverse must equal
// embedding.Unique of the index stream, Fresh must mark exactly the first
// in-window use of each row, NextUse must link to the next batch using the
// row, and FreshIDs/FreshPos must be the Fresh subset in order. Each input
// runs all its windows on one planner, so every table and window sees the
// scratch the ones before it left behind.
func TestLookaheadPlanEquivalence(t *testing.T) {
	d, err := New(lookaheadTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	type window struct{ start, n int }
	inputs := []struct {
		name    string
		src     sparseSource // nil: the dataset's streams spread over rows
		rows    []int
		window  int
		batch   int
		windows []window
	}{
		// Windows need not start at iteration 0; the second starts where the
		// first ended, and rows carried over must gather fresh again.
		{"dataset", d, d.Spec.TableRows, 6, 32, []window{{3, 6}, {9, 6}}},
		{"large table then tiny then large", nil, []int{1 << 40, 3, 1 << 33}, 6, 32, []window{{0, 6}, {6, 6}}},
		{"tiny table then large then tiny", nil, []int{2, 1 << 40, 5}, 6, 32, []window{{0, 6}, {6, 6}}},
		// The pipeline's ramp: windows double up to the configured size, and
		// the run's tail is truncated.
		{"ramp and tail", d, d.Spec.TableRows, 16, 8, []window{{0, 2}, {2, 4}, {6, 8}, {14, 16}, {30, 16}, {46, 5}}},
		// Every row of batch 0 recurs in batch 1 in reverse order, and the
		// same iterations are planned twice.
		{"reversed reuse, replanned", &fixedSource{ids: [][][]int{
			{{1, 2, 3, 4, 5, 6}}, {{6, 5, 4, 3, 2, 1, 7}}, {{7, 1, 2, 3, 4, 5, 6}}, {{2, 4, 6, 7}},
		}}, []int{8}, 4, 1, []window{{0, 4}, {0, 3}}},
	}
	for _, in := range inputs {
		if in.src == nil {
			in.src = &spreadSource{d: d, rows: in.rows}
		}
		cfg := LookaheadConfig{Window: in.window, Batch: in.batch, Rows: in.rows}
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
				checkPlanAgainstReference(t, in.name, plan, ti, streamsOf(in.src, w.start, w.n, in.batch, ti))
			}
			plan.Release()
		}
	}
}

// FuzzLookaheadMatchesReference plans fuzz-decoded windows of tiny and
// 2⁴⁰-row tables on one planner and checks every BatchAccess field against
// the reference planner and embedding.Unique (see decodeLookaheadInput for
// the input layout). The committed seeds in testdata/fuzz replay the inputs
// of TestLookaheadPlanEquivalence and TestLookaheadWindowBoundary.
func FuzzLookaheadMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		rows, window, start, sizes, src := decodeLookaheadInput(in)
		if len(sizes) == 0 {
			return
		}
		cfg := LookaheadConfig{Window: window, Batch: 1, Rows: rows}
		for ti := range rows {
			cfg.Tables = append(cfg.Tables, ti)
		}
		la, err := NewLookahead(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sizes {
			plan := la.Advance(start, n)
			if plan.Start != start || plan.N != n {
				t.Fatalf("plan covers [%d,%d), want [%d,%d)", plan.Start, plan.Start+plan.N, start, start+n)
			}
			for ti := range rows {
				checkPlanAgainstReference(t, "fuzz", plan, ti, streamsOf(src, start, n, 1, ti))
			}
			plan.Release()
			start += n
		}
	})
}

// decodeLookaheadInput decodes a fuzz input. Byte 0 gives 1-3 tables, then
// one byte per table its rows (0 is a 2⁴⁰-row table, k > 0 is k rows), one
// byte the window size (2-8) and one the first iteration (0-255). Windows
// follow back to back: a byte gives the window's batch count (1 to the
// window size), then batch by batch and table by table a uvarint stream
// length (at most 64) and that many uvarint ids, folded into the table's
// rows. Decoding stops at the first window the input cannot complete.
func decodeLookaheadInput(in []byte) (rows []int, window, start int, sizes []int, src *fixedSource) {
	next := func() (int, bool) {
		if len(in) == 0 {
			return 0, false
		}
		b := in[0]
		in = in[1:]
		return int(b), true
	}
	uvarint := func() (uint64, bool) {
		v, k := binary.Uvarint(in)
		if k <= 0 {
			return 0, false
		}
		in = in[k:]
		return v, true
	}
	nt, ok := next()
	if !ok {
		return nil, 0, 0, nil, nil
	}
	for range 1 + nt%3 {
		r, ok := next()
		if !ok {
			return nil, 0, 0, nil, nil
		}
		if r == 0 {
			r = 1 << 40
		}
		rows = append(rows, r)
	}
	w, ok1 := next()
	start, ok2 := next()
	if !ok1 || !ok2 {
		return nil, 0, 0, nil, nil
	}
	window = 2 + w%7
	src = &fixedSource{ids: make([][][]int, start)}
	for {
		n, ok := next()
		if !ok {
			return rows, window, start, sizes, src
		}
		n = 1 + n%window
		batches := make([][][]int, n)
		for j := range batches {
			batches[j] = make([][]int, len(rows))
			for ti, r := range rows {
				l, ok := uvarint()
				if !ok || l > 64 {
					return rows, window, start, sizes, src
				}
				for range l {
					id, ok := uvarint()
					if !ok {
						return rows, window, start, sizes, src
					}
					batches[j][ti] = append(batches[j][ti], int(id%uint64(r)))
				}
			}
		}
		src.ids = append(src.ids, batches...)
		sizes = append(sizes, n)
	}
}

// streamsOf reads table ti's index streams for [start, start+n) from src,
// each into fresh storage through a fresh generator.
func streamsOf(src sparseSource, start, n, size, ti int) [][]int {
	streams := make([][]int, n)
	for j := range streams {
		streams[j] = src.IndicesInto(&Generator{}, nil, start+j, size, ti)
	}
	return streams
}

// spreadSource maps the test dataset's small id spaces onto tables of any
// size, so a huge table and a tiny one can follow each other through the
// planner: table t's ids are scaled to span rows[t], or folded into it.
type spreadSource struct {
	d    *Dataset
	rows []int
}

func (s *spreadSource) IndicesInto(g *Generator, dst []int, iter, size, table int) []int {
	ids := s.d.IndicesInto(g, dst, iter, size, table)
	have, want := s.d.Spec.TableRows[table], s.rows[table]
	for i, id := range ids {
		if want >= have {
			ids[i] = id * (want / have)
		} else {
			ids[i] = id % want
		}
	}
	return ids
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

// batchOnly hides Dataset.IndicesInto: a source the planner must refuse.
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
	// A source that can only build whole batches is refused by name.
	_, err := NewLookahead(batchOnly{}, LookaheadConfig{Window: 2, Batch: 1})
	if err == nil || !strings.Contains(err.Error(), "data.batchOnly") {
		t.Errorf("a source without IndicesInto: got %v, want an error naming data.batchOnly", err)
	}
}

// TestLookaheadZeroAllocSteadyState enforces the hot-path contract: once
// plan storage has grown to the working set, Advance+Release over a
// non-allocating source performs zero heap allocations per window. What it
// does allocate until then follows the window, not the table: the third
// table declares 2²⁶ rows and its ids span them, and building the planner
// plus the first window stays within 160 bytes per planned id (about 90 at
// the time of writing).
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
	})
	if err != nil {
		t.Fatal(err)
	}
	la.Advance(0, window).Release()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(160*3*window*batch); got > limit {
		t.Fatalf("planner and first window allocated %d bytes for %d planned ids over a 2²⁶-row table, want ≤ %d", got, 3*window*batch, limit)
	}
	// Warmup over every window position grows uniq storage to the full
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

// TestLookaheadZeroAllocDatasetStreams is the planner's allocation contract
// with stream generation included: over the dataset itself as the source,
// Advance draws every table's streams through the planner's one generator
// into its reused buffers, so once a round of windows has grown the storage
// a steady-state Advance+Release allocates nothing, and its plans still
// match the reference planner.
func TestLookaheadZeroAllocDatasetStreams(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d, err := New(lookaheadTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	const window, batch = 4, 32
	cfg := LookaheadConfig{Window: window, Batch: batch, Rows: d.Spec.TableRows}
	for ti := range d.Spec.TableRows {
		cfg.Tables = append(cfg.Tables, ti)
	}
	la, err := NewLookahead(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < 16*window; start += window {
		la.Advance(start, window).Release()
	}
	start := 0
	if allocs := testing.AllocsPerRun(20, func() {
		la.Advance(start, window).Release()
		start += window
	}); allocs != 0 {
		t.Fatalf("steady-state Advance over dataset streams allocated %v times per window, want 0", allocs)
	}
	plan := la.Advance(start, window)
	for ti := range cfg.Tables {
		checkPlanAgainstReference(t, "dataset streams", plan, ti, streamsOf(d, start, window, batch, ti))
	}
	plan.Release()
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
