package ps

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// mustSync drives Sync with per-call literal slices; out receives the
// patched rows.
func mustSync(t *testing.T, c *Cache, applied, iter int, ids []int, out *tensor.Matrix, fresh []bool, next []int32) int {
	t.Helper()
	patched, err := c.Sync(applied, iter, ids, out, fresh, next)
	if err != nil {
		t.Fatalf("Sync(applied=%d, iter=%d): %v", applied, iter, err)
	}
	return patched
}

// TestCacheSyncServesPinned: a row published with a future next-use hint is
// served to a batch that skipped the host gather (fresh=false), and serving
// adopts the batch's own hint for the entry.
func TestCacheSyncServesPinned(t *testing.T) {
	c := NewCache(2)
	c.Publish([]int{7}, rowsOf(42), 0, []int32{3})

	out := rowsOf(0)
	patched := mustSync(t, c, 0, 3, []int{7}, out, []bool{false}, []int32{-1})
	if patched != 1 || out.At(0, 0) != 42 {
		t.Fatalf("pinned serve: patched=%d value=%v, want 1 row of 42s", patched, out.Row(0))
	}
}

// TestCacheSyncMissIsError: a pinned row with no cache entry is an invariant
// violation surfaced as ErrLookaheadMiss, not a silent zero row.
func TestCacheSyncMissIsError(t *testing.T) {
	c := NewCache(2)
	_, err := c.Sync(0, 5, []int{9}, rowsOf(0), []bool{false}, []int32{-1})
	if !errors.Is(err, ErrLookaheadMiss) {
		t.Fatalf("got %v, want ErrLookaheadMiss", err)
	}
	// A fresh row's absence is an ordinary miss, not an error.
	if _, err := c.Sync(0, 5, []int{9}, rowsOf(0), []bool{true}, []int32{-1}); err != nil {
		t.Fatalf("fresh miss errored: %v", err)
	}
}

// TestCacheSyncTable is the protocol table. One entry (row 1, value 11) is
// published, then one batch is synced; the batch either uses row 1 or an
// unrelated gathered row 2 (so the sweep runs without serving, and thus
// re-hinting, the entry).
//
// Sweep rule: an entry is evicted exactly when its push is host-visible AND
// no promise reaches past the batch being served — plain push visibility
// when nothing is promised, Belady's farthest-next-use otherwise.
// Hit rule: the cache supplied bits the host gather did not.
func TestCacheSyncTable(t *testing.T) {
	const entryVal, gatheredVal = 11, 7
	cases := []struct {
		name        string
		push        int     // entry's gradient-push iteration
		promise     []int32 // Publish's nextUse (nil: no promise)
		applied     int     // host-visible pushes at sync time
		iter        int     // batch being served
		id          int     // the batch's one row: 1 (the entry's) or 2
		fresh       []bool  // Sync's fresh (nil: gathered)
		next        []int32 // Sync's nextUse (nil: no promise)
		wantPatched int
		wantEvicted bool
	}{
		// Oracle sweep: promises restrict push-visibility eviction.
		{"push not visible: retained regardless of hint", 5, []int32{-1}, 5, 9, 2, []bool{true}, []int32{-1}, 0, false},
		{"visible, no future use: evicted", 5, []int32{-1}, 6, 9, 2, []bool{true}, []int32{-1}, 0, true},
		{"visible, next use is this batch: evicted", 5, []int32{9}, 6, 9, 2, []bool{true}, []int32{-1}, 0, true},
		{"visible, next use in the future: retained", 5, []int32{12}, 6, 9, 2, []bool{true}, []int32{-1}, 0, false},
		{"visible, farthest next use: retained", 5, []int32{100}, 6, 9, 2, []bool{true}, []int32{-1}, 0, false},
		{"visible, hint already behind the batch: evicted", 5, []int32{8}, 6, 9, 2, []bool{true}, []int32{-1}, 0, true},
		// Reactive rows: nil fresh/nextUse, the unplanned batch.
		{"nil hints, push visible: evicted by push visibility alone", 5, nil, 6, 9, 2, nil, nil, 0, true},
		{"nil hints, push in flight: retained", 5, nil, 5, 9, 2, nil, nil, 0, false},
		{"in-flight entry patches a gathered row", 5, nil, 5, 9, 1, nil, nil, 1, false},
		{"host-visible entry on a gathered row: miss, row untouched, swept", 5, nil, 6, 9, 1, nil, nil, 0, true},
		// Planned rows using the entry.
		{"host-visible entry on a pinned row: hit, then swept", 5, []int32{9}, 6, 9, 1, []bool{false}, []int32{-1}, 1, true},
		{"host-visible entry on a pinned row, re-promised: hit, retained", 5, []int32{9}, 6, 9, 1, []bool{false}, []int32{12}, 1, false},
		{"host-visible entry on a gathered row, re-promised: miss, retained", 5, []int32{-1}, 6, 9, 1, []bool{true}, []int32{12}, 0, false},
		{"in-flight entry on a planned gathered row: patched", 5, []int32{-1}, 5, 9, 1, []bool{true}, []int32{-1}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(2)
			c.Publish([]int{1}, rowsOf(entryVal), tc.push, tc.promise)
			out := rowsOf(gatheredVal)
			patched := mustSync(t, c, tc.applied, tc.iter, []int{tc.id}, out, tc.fresh, tc.next)
			want := float32(gatheredVal)
			if tc.wantPatched == 1 {
				want = entryVal
			}
			if patched != tc.wantPatched || out.At(0, 0) != want {
				t.Fatalf("patched=%d row=%v, want patched=%d row of %vs", patched, out.Row(0), tc.wantPatched, want)
			}
			st := countsOf(c)
			if st.Hits != int64(tc.wantPatched) || st.Misses != int64(1-tc.wantPatched) {
				t.Fatalf("hits=%d misses=%d, want %d/%d", st.Hits, st.Misses, tc.wantPatched, 1-tc.wantPatched)
			}
			if _, ok := c.Lookup(1); ok == tc.wantEvicted {
				t.Fatalf("entry present=%v, want evicted=%v", ok, tc.wantEvicted)
			}
			if (st.Evictions == 1) != tc.wantEvicted {
				t.Fatalf("evictions=%d, want evicted=%v", st.Evictions, tc.wantEvicted)
			}
		})
	}
}

// TestCacheNilMeansDefault is the property that makes the unplanned batch
// the degenerate case of the planned one: driving a cache with nil fresh and
// nil nextUse is indistinguishable — patched rows, entries, counters — from
// driving it with all-true and all −1, over a random publish/sync schedule
// with overlapping rows and an advancing applied counter.
func TestCacheNilMeansDefault(t *testing.T) {
	rng := tensor.NewRNG(12)
	implicit, explicit := NewCache(2), NewCache(2)
	applied := 0
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6)
		ids := make([]int, 0, n)
		seen := map[int]bool{}
		for len(ids) < n {
			if id := rng.Intn(12); !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		allFresh, noHints := make([]bool, n), make([]int32, n)
		for i := range allFresh {
			allFresh[i], noHints[i] = true, -1
		}
		gathered := make([]float32, n)
		for i := range gathered {
			gathered[i] = float32(-iter - 1) // distinct from every published value
		}
		a, b := rowsOf(gathered...), rowsOf(gathered...)
		pa := mustSync(t, implicit, applied, iter, ids, a, nil, nil)
		pb := mustSync(t, explicit, applied, iter, ids, b, allFresh, noHints)
		if pa != pb || a.MaxAbsDiff(b) != 0 {
			t.Fatalf("iter %d: nil args patched %d rows %v, explicit %d rows %v", iter, pa, a.Data, pb, b.Data)
		}
		trained := rowsOf(gathered...)
		tensor.Scale(-1, trained.Data)
		implicit.Publish(ids, trained, iter, nil)
		explicit.Publish(ids, trained, iter, noHints)
		if implicit.Len() != explicit.Len() || !reflect.DeepEqual(countsOf(implicit), countsOf(explicit)) {
			t.Fatalf("iter %d: nil args %d entries %+v, explicit %d entries %+v",
				iter, implicit.Len(), countsOf(implicit), explicit.Len(), countsOf(explicit))
		}
		// The server trails the worker by up to three pushes.
		if applied < iter+1 && rng.Intn(3) > 0 {
			applied++
		}
		if applied < iter-2 {
			applied = iter - 2
		}
	}
	if st := countsOf(implicit); st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("schedule never hit or evicted; property has no power: %+v", st)
	}
}

// TestCacheSyncEdgeExpiry covers the window boundary: a pin whose last
// reference is the window's final batch is served there with a -1 hint and
// swept in the same call — the entry expires exactly at the window edge,
// leaving nothing for the next window (whose plan gathers the row fresh).
func TestCacheSyncEdgeExpiry(t *testing.T) {
	const edge = 7
	c := NewCache(2)
	c.Publish([]int{3}, rowsOf(30), 4, []int32{edge})

	// Before the edge, host visibility alone must not evict the pin.
	mustSync(t, c, 6, 6, []int{8}, rowsOf(0), []bool{true}, []int32{-1})
	if _, ok := c.Lookup(3); !ok {
		t.Fatal("pinned entry evicted before its promised use")
	}

	// The edge batch serves the pin (fresh=false) and hints -1: no further
	// in-window use, so the same call's sweep drops the entry.
	out := rowsOf(0)
	patched := mustSync(t, c, 6, edge, []int{3}, out, []bool{false}, []int32{-1})
	if patched != 1 || out.At(0, 0) != 30 {
		t.Fatalf("edge serve: patched=%d value=%v, want 1 row of 30s", patched, out.Row(0))
	}
	if _, ok := c.Lookup(3); ok {
		t.Fatal("entry survived past the window edge with no future reference")
	}
}

// TestCacheSyncChainedPromises: serving a pinned row with a further future
// hint re-arms its protection — a row used in three batches of one window
// rides the cache through all of them on one gather.
func TestCacheSyncChainedPromises(t *testing.T) {
	c := NewCache(2)
	c.Publish([]int{5}, rowsOf(50), 0, []int32{2})

	// Batch 2 serves the pin and promises batch 4.
	mustSync(t, c, 1, 2, []int{5}, rowsOf(0), []bool{false}, []int32{4})
	if _, ok := c.Lookup(5); !ok {
		t.Fatal("re-armed pin evicted")
	}
	// Batch 3 does not use the row; the sweep must still honor the new hint.
	mustSync(t, c, 1, 3, []int{6}, rowsOf(0), []bool{true}, []int32{-1})
	if _, ok := c.Lookup(5); !ok {
		t.Fatal("re-armed pin evicted by an intervening batch")
	}
	// Batch 4 consumes the final promise.
	out := rowsOf(0)
	if p := mustSync(t, c, 1, 4, []int{5}, out, []bool{false}, []int32{-1}); p != 1 || out.At(0, 0) != 50 {
		t.Fatalf("final serve: patched=%d value=%v, want 1 row of 50s", p, out.Row(0))
	}
}

// TestCachePublishNilClearsPromise: republishing a row with no hints resets
// its retention promise, so stale promises from an earlier window cannot
// outlive the plan that made them.
func TestCachePublishNilClearsPromise(t *testing.T) {
	c := NewCache(2)
	c.Publish([]int{1}, rowsOf(10), 0, []int32{50})
	c.Publish([]int{1}, rowsOf(11), 1, nil)
	// Push visible, promise cleared: plain sweep evicts.
	mustSync(t, c, 2, 0, []int{2}, rowsOf(0), nil, nil)
	if _, ok := c.Lookup(1); ok {
		t.Fatal("a nil-hint Publish left a stale promise protecting the entry")
	}
}
