package distps

import "testing"

func TestRingDeterministic(t *testing.T) {
	a, b := newHashRing(3), newHashRing(3)
	for table := 0; table < 4; table++ {
		for row := 0; row < 500; row++ {
			if a.owner(table, row) != b.owner(table, row) {
				t.Fatalf("ring owners diverge at (%d, %d)", table, row)
			}
		}
	}
}

func TestRingCoversAllShards(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		r := newHashRing(n)
		if len(r.points) != n*ringVnodes {
			t.Fatalf("%d ring points, want %d per shard", len(r.points), ringVnodes)
		}
		counts := make([]int, n)
		const rows = 2000
		for row := 0; row < rows; row++ {
			o := r.owner(0, row)
			if o < 0 || o >= n {
				t.Fatalf("owner %d out of range [0, %d)", o, n)
			}
			counts[o]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Errorf("n=%d: shard %d owns no rows of a %d-row table", n, s, rows)
			}
		}
	}
}

// TestRingRebalanceBound checks the consistent-hashing property: going from
// n to n+1 shards moves roughly 1/(n+1) of the keys, not most of them.
func TestRingRebalanceBound(t *testing.T) {
	const rows = 4000
	r3, r4 := newHashRing(3), newHashRing(4)
	moved := 0
	for row := 0; row < rows; row++ {
		if r3.owner(1, row) != r4.owner(1, row) {
			moved++
		}
	}
	// Expected ≈ 25%; modulo hashing (row % n) would move ≈ 75%.
	if frac := float64(moved) / rows; frac > 0.5 {
		t.Fatalf("3→4 shards moved %.0f%% of rows; consistent hashing should move ~25%%", frac*100)
	}
}

func TestRingTablesHashIndependently(t *testing.T) {
	r := newHashRing(4)
	same := 0
	const rows = 1000
	for row := 0; row < rows; row++ {
		if r.owner(0, row) == r.owner(1, row) {
			same++
		}
	}
	// Independent placement agrees ~1/n of the time; identical placement
	// (table index ignored) would agree always.
	if same == rows {
		t.Fatal("tables 0 and 1 place identically; table index is not hashed")
	}
}
