package tt

import "math/bits"

// uniq is Algorithm 1's Buf_flag/Buf_idx: it hands the distinct keys of one
// batch dense ids in first-occurrence order. It is an open-addressed table
// sized to the batch, not to the key space (a table's rows or prefixes), and
// it is never cleared: a slot is live iff its stamp equals the current
// generation, so begin costs O(1) once the table has grown to the batch size.
type uniq struct {
	key   []int
	id    []int32
	stamp []uint32
	gen   uint32
	shift uint // 64 − log₂ len(key): the hash keeps the product's top bits
}

// begin starts a new key set of at most n keys. The table holds a power of
// two ≥ 2n slots, so at least half stay free and every probe ends.
func (u *uniq) begin(n int) {
	if want := max(2*n, 16); len(u.key) < want {
		u.grow(want)
	}
	u.gen++
	if u.gen == 0 { // wrapped: stamps of 2³² generations ago would read as live
		clear(u.stamp)
		u.gen = 1
	}
}

// grow replaces the table by an empty one of the first power of two ≥ want.
//
//elrec:coldpath amortized growth to the largest batch seen; steady state keeps the table
func (u *uniq) grow(want int) {
	log2 := bits.Len(uint(want - 1))
	u.key = make([]int, 1<<log2)
	u.id = make([]int32, 1<<log2)
	u.stamp = make([]uint32, 1<<log2)
	u.gen, u.shift = 0, uint(64-log2)
}

// idOf returns key's id in the current set; a key not seen since begin is
// recorded under next, the id the caller hands out, and reported fresh.
func (u *uniq) idOf(key, next int) (id int, fresh bool) {
	mask := len(u.key) - 1
	for s := int((uint64(key) * 0x9E3779B97F4A7C15) >> u.shift); ; s = (s + 1) & mask {
		if u.stamp[s] != u.gen {
			u.key[s], u.id[s], u.stamp[s] = key, int32(next), u.gen
			return next, true
		}
		if u.key[s] == key {
			return int(u.id[s]), false
		}
	}
}
