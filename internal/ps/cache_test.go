package ps

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// rowsOf builds a len(vals)×2 matrix whose row i is {vals[i], vals[i]}.
func rowsOf(vals ...float32) *tensor.Matrix {
	out := tensor.New(len(vals), 2)
	for i, v := range vals {
		out.Set(i, 0, v)
		out.Set(i, 1, v)
	}
	return out
}

func TestCachePublishLookup(t *testing.T) {
	c := newCache(2)
	c.publish([]int{7}, rowsOf(1.5), 0, nil)
	got, ok := c.Lookup(7)
	if !ok || got[0] != 1.5 || got[1] != 1.5 {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	if _, ok := c.Lookup(8); ok {
		t.Fatal("absent row found")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.publish([]int{7}, rowsOf(5), 1, nil)
	if got, _ := c.Lookup(7); got[0] != 5 || c.Len() != 1 {
		t.Fatalf("re-publish did not overwrite in place: %v, Len %d", got, c.Len())
	}
}

func TestCacheSyncPatchesOnlyCached(t *testing.T) {
	c := newCache(2)
	c.publish([]int{5}, rowsOf(9), 0, nil)
	vals := rowsOf(1, 2)
	patched, err := c.sync(0, 1, []int{5, 6}, vals, nil, nil)
	if err != nil || patched != 1 {
		t.Fatalf("patched %d rows (err %v) want 1", patched, err)
	}
	if vals.At(0, 0) != 9 {
		t.Fatal("cached row not patched")
	}
	if vals.At(1, 0) != 2 {
		t.Fatal("uncached row modified")
	}
	st := countsOf(c)
	if st.Syncs != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats syncs=%d hits=%d misses=%d", st.Syncs, st.Hits, st.Misses)
	}
}

// TestCacheValidation: mismatched id/row/flag/hint lengths and a wrong row
// width panic; nil fresh and nextUse are valid (see TestCacheNilMeansDefault).
func TestCacheValidation(t *testing.T) {
	for _, f := range []func(){
		func() { newCache(0) },
		func() { newCache(2).publish([]int{1}, rowsOf(), 0, nil) },
		func() { newCache(2).publish([]int{1}, tensor.New(1, 1), 0, nil) }, // wrong dim
		func() { newCache(2).publish([]int{1}, rowsOf(1), 0, []int32{}) },
		func() { newCache(2).sync(0, 0, []int{1}, rowsOf(), nil, nil) },                  //nolint:errcheck
		func() { newCache(2).sync(0, 0, []int{1}, tensor.New(1, 3), nil, nil) },          //nolint:errcheck
		func() { newCache(2).sync(0, 0, []int{1}, rowsOf(0), []bool{}, []int32{-1}) },    //nolint:errcheck
		func() { newCache(2).sync(0, 0, []int{1}, rowsOf(0), []bool{true}, []int32{}) },  //nolint:errcheck
		func() { newCache(2).sync(0, 0, []int{1}, rowsOf(0), nil, []int32{-1, -1}) },     //nolint:errcheck
		func() { newCache(2).sync(0, 0, []int{1}, rowsOf(0), []bool{true, false}, nil) }, //nolint:errcheck
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid cache call did not panic")
				}
			}()
			f()
		}()
	}
}

// TestCacheZeroAllocSteadyState: once the slot arrays and the index have
// grown to the largest live set, a training step's sync and publish allocate
// nothing — batches half-overlapping the previous one, pushes landing two
// steps behind, a quarter of the rows promised two batches ahead, so every
// step serves, sweeps, evicts and rebuilds the index.
func TestCacheZeroAllocSteadyState(t *testing.T) {
	const dim, batch = 8, 64
	c := newCache(dim)
	ids, next := make([]int, batch), make([]int32, batch)
	rows := tensor.New(batch, dim)
	iter := 0
	step := func() {
		for i := range ids {
			ids[i] = iter*batch/2 + i
			next[i] = -1
			if i%4 == 0 {
				next[i] = int32(iter + 2)
			}
		}
		if _, err := c.sync(iter-2, iter, ids, rows, nil, next); err != nil {
			t.Fatal(err)
		}
		c.publish(ids, rows, iter, next)
		iter++
	}
	for range 50 {
		step()
	}
	before := countsOf(c)
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state Sync+Publish allocated %v times per step, want 0", allocs)
	}
	if st := countsOf(c); st.Evictions == before.Evictions || st.Hits == before.Hits {
		t.Fatalf("the measured steps never evicted or hit; the pin has no power: %+v → %+v", before, st)
	}
}

// fuzzBytes feeds FuzzCacheMatchesReference's decoder; an exhausted input
// reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// FuzzCacheMatchesReference drives cache and refCache — the map-based cache
// it replaced, kept verbatim — through one generated schedule and requires
// them to be indistinguishable after every call: patched counts and
// errLookaheadMiss, the bits of every synced row, Len, Stats, and Lookup of
// every id.
//
// Encoding: byte 0 sets dim = 1 + b%4, then one call per op byte b until the
// input runs out. Bit 0 picks publish (0) or sync (1); bits 1–3 are the
// number of ids n; bit 4 gives Sync a fresh slice (else nil); bit 5 gives a
// nextUse slice (else nil). publish reads its pushIter byte, sync an advance
// byte (applied += low nibble, iter += high nibble: both never decrease).
// Then n id bytes (id = b%16), for Sync n fresh bytes (b&1) if flagged, and n
// promise bytes (b−1: 0 is −1, no promise) if flagged. Inputs over 256
// bytes are skipped. The committed seeds replay the hand-written cases of
// cache_window_test.go.
func FuzzCacheMatchesReference(f *testing.F) {
	const idRange = 16
	f.Fuzz(func(t *testing.T, input []byte) {
		// With 16 ids the live set is tiny, so a longer schedule reaches no
		// new state; capping it keeps the engine's minimisation of each new
		// input (quadratic in its length) from eating the fuzz time.
		if len(input) > 256 {
			return
		}
		in := fuzzBytes(input)
		dim := 1 + int(in.next()%4)
		got, want := newCache(dim), newRefCache(dim)
		applied, iter := 0, 0
		for op := 0; len(in) > 0; op++ {
			b := in.next()
			n := int(b>>1) & 7
			arg := int(in.next())
			if b&1 == 1 {
				applied += arg & 15
				iter += arg >> 4
			}
			ids := make([]int, n)
			for i := range ids {
				ids[i] = int(in.next()) % idRange
			}
			var fresh []bool
			if b&1 == 1 && b&0x10 != 0 {
				fresh = make([]bool, n)
				for i := range fresh {
					fresh[i] = in.next()&1 == 1
				}
			}
			var nextUse []int32
			if b&0x20 != 0 {
				nextUse = make([]int32, n)
				for i := range nextUse {
					nextUse[i] = int32(in.next()) - 1
				}
			}
			// Distinct values per op and row: published rows positive,
			// gathered rows negative, so a wrong patch shows in the bits.
			gotRows, wantRows := tensor.New(n, dim), tensor.New(n, dim)
			for i := range gotRows.Data {
				v := float32(op*64+i) + 0.25
				if b&1 == 1 {
					v = -v
				}
				gotRows.Data[i], wantRows.Data[i] = v, v
			}
			if b&1 == 0 {
				got.publish(ids, gotRows, arg, nextUse)
				want.Publish(ids, wantRows, arg, nextUse)
			} else {
				gp, gerr := got.sync(applied, iter, ids, gotRows, fresh, nextUse)
				wp, werr := want.Sync(applied, iter, ids, wantRows, fresh, nextUse)
				if gp != wp || (gerr == nil) != (werr == nil) || (gerr != nil && (!errors.Is(gerr, errLookaheadMiss) || gerr.Error() != werr.Error())) {
					t.Fatalf("op %d Sync(applied=%d, iter=%d, ids=%v, fresh=%v, nextUse=%v): patched %d err %v, reference %d err %v",
						op, applied, iter, ids, fresh, nextUse, gp, gerr, wp, werr)
				}
				for i := range gotRows.Data {
					if math.Float32bits(gotRows.Data[i]) != math.Float32bits(wantRows.Data[i]) {
						t.Fatalf("op %d Sync: row element %d = %v, reference %v", op, i, gotRows.Data[i], wantRows.Data[i])
					}
				}
			}
			if got.Len() != want.Len() || countsOf(got) != want.Stats() {
				t.Fatalf("op %d: Len %d Stats %+v, reference Len %d Stats %+v", op, got.Len(), countsOf(got), want.Len(), want.Stats())
			}
			for id := range idRange {
				gv, gok := got.Lookup(id)
				wv, wok := want.Lookup(id)
				if gok != wok || !slices.EqualFunc(gv, wv, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
					t.Fatalf("op %d: Lookup(%d) = %v, %v; reference %v, %v", op, id, gv, gok, wv, wok)
				}
			}
		}
	})
}
