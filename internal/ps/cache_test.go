package ps

import (
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
	c := NewCache(2)
	c.Publish([]int{7}, rowsOf(1.5), 0, nil)
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
	c.Publish([]int{7}, rowsOf(5), 1, nil)
	if got, _ := c.Lookup(7); got[0] != 5 || c.Len() != 1 {
		t.Fatalf("re-publish did not overwrite in place: %v, Len %d", got, c.Len())
	}
}

func TestCacheSyncPatchesOnlyCached(t *testing.T) {
	c := NewCache(2)
	c.Publish([]int{5}, rowsOf(9), 0, nil)
	vals := rowsOf(1, 2)
	patched, err := c.Sync(0, 1, []int{5, 6}, vals, nil, nil)
	if err != nil || patched != 1 {
		t.Fatalf("patched %d rows (err %v) want 1", patched, err)
	}
	if vals.At(0, 0) != 9 {
		t.Fatal("cached row not patched")
	}
	if vals.At(1, 0) != 2 {
		t.Fatal("uncached row modified")
	}
	st := c.Stats()
	if st.Syncs != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats syncs=%d hits=%d misses=%d", st.Syncs, st.Hits, st.Misses)
	}
}

// TestCacheValidation: mismatched id/row/flag/hint lengths and a wrong row
// width panic; nil fresh and nextUse are valid (see TestCacheNilMeansDefault).
func TestCacheValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0) },
		func() { NewCache(2).Publish([]int{1}, rowsOf(), 0, nil) },
		func() { NewCache(2).Publish([]int{1}, tensor.New(1, 1), 0, nil) }, // wrong dim
		func() { NewCache(2).Publish([]int{1}, rowsOf(1), 0, []int32{}) },
		func() { NewCache(2).Sync(0, 0, []int{1}, rowsOf(), nil, nil) },                  //nolint:errcheck
		func() { NewCache(2).Sync(0, 0, []int{1}, tensor.New(1, 3), nil, nil) },          //nolint:errcheck
		func() { NewCache(2).Sync(0, 0, []int{1}, rowsOf(0), []bool{}, []int32{-1}) },    //nolint:errcheck
		func() { NewCache(2).Sync(0, 0, []int{1}, rowsOf(0), []bool{true}, []int32{}) },  //nolint:errcheck
		func() { NewCache(2).Sync(0, 0, []int{1}, rowsOf(0), nil, []int32{-1, -1}) },     //nolint:errcheck
		func() { NewCache(2).Sync(0, 0, []int{1}, rowsOf(0), []bool{true, false}, nil) }, //nolint:errcheck
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
