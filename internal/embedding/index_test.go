package embedding

import (
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// checkUniq runs one key set through u and through a map reference: same id
// for every key, ids handed out 0, 1, 2, … in first-occurrence order, fresh
// reported exactly on first sight. Unique of the same keys must be what the
// map loop it used to be returns.
func checkUniq(t *testing.T, name string, u *Index, keys []int) {
	t.Helper()
	u.Begin(len(keys))
	if u.Slots() < 2*len(keys) || u.Slots()&(u.Slots()-1) != 0 {
		t.Fatalf("%s: %d slots for %d keys, want a power of two ≥ 2n", name, u.Slots(), len(keys))
	}
	ref := map[int]int{}
	var refUniq []int
	refInverse := make([]int, len(keys))
	for p, k := range keys {
		want, seen := ref[k]
		next := len(ref)
		if !seen {
			want, ref[k] = next, next
			refUniq = append(refUniq, k)
		}
		refInverse[p] = want
		got, fresh := u.IDOf(k, next)
		if got != want || fresh == seen {
			t.Fatalf("%s: key %d at position %d: id %d fresh %v, want id %d fresh %v", name, k, p, got, fresh, want, !seen)
		}
	}
	// Find reads the finished set back without adding to it.
	for _, k := range keys {
		if got, ok := u.Find(k); !ok || got != ref[k] {
			t.Fatalf("%s: Find(%d) = %d, %v; want %d, true", name, k, got, ok, ref[k])
		}
	}
	absent := -1
	for _, seen := ref[absent]; seen; _, seen = ref[absent] {
		absent--
	}
	if got, ok := u.Find(absent); ok {
		t.Fatalf("%s: Find(%d) of an absent key = %d, true", name, absent, got)
	}
	uniq, inverse := Unique(keys)
	if !slices.Equal(uniq, refUniq) || !slices.Equal(inverse, refInverse) {
		t.Fatalf("%s: Unique = %v, %v; the map loop gives %v, %v", name, uniq, inverse, refUniq, refInverse)
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
	var u Index
	for _, s := range sets {
		checkUniq(t, s.name, &u, s.keys)
	}
	for i := len(sets) - 1; i >= 0; i-- {
		checkUniq(t, sets[i].name+" (reverse pass)", &u, sets[i].keys)
	}
	// And each on a table of its own, sized to it alone.
	for _, s := range sets {
		checkUniq(t, s.name+" (own table)", &Index{}, s.keys)
	}
}

func TestUniqLargeThenSmallThenLarge(t *testing.T) {
	var u Index
	r := tensor.NewRNG(901)
	draw := func(n, space int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = r.Intn(space)
		}
		return keys
	}
	checkUniq(t, "large", &u, draw(4000, 1000))
	grown := u.Slots()
	for round := 0; round < 5; round++ {
		checkUniq(t, "small after large", &u, draw(8, 1000))
		if u.Slots() != grown {
			t.Fatalf("a small batch resized the table: %d → %d slots", grown, u.Slots())
		}
	}
	checkUniq(t, "large again", &u, draw(4000, 1000))
	checkUniq(t, "larger: growth", &u, draw(9000, 100000))
	if u.Slots() <= grown {
		t.Fatalf("table did not grow for a larger batch: %d slots", u.Slots())
	}
	checkUniq(t, "small after growth", &u, draw(8, 1000))
}

// TestUniqGenerationWrap forces the 32-bit generation over its wrap: slots
// stamped by early generations must not read as live afterwards.
func TestUniqGenerationWrap(t *testing.T) {
	var u Index
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

// TestUniqueAllocsIndependentOfIDMagnitude: Unique allocates its two results
// and one Index (three arrays), however many distinct ids the stream has and
// wherever in the id space they lie.
func TestUniqueAllocsIndependentOfIDMagnitude(t *testing.T) {
	const n = 4096
	small, huge := make([]int, n), make([]int, n)
	for i := range small {
		small[i] = i
		huge[i] = i << 40
	}
	for _, ids := range [][]int{small[:64], small, huge} {
		if allocs := testing.AllocsPerRun(10, func() { Unique(ids) }); allocs > 5 {
			t.Fatalf("Unique over %d distinct ids up to %d allocated %v times, want ≤ 5", len(ids), ids[len(ids)-1], allocs)
		}
	}
}
