package embedding

import "math/bits"

// Index is Algorithm 1's Buf_flag/Buf_idx and the repo's one dedup: it hands
// the distinct keys of one key set (a batch's indices or TT prefixes, a
// lookahead window's row ids) dense ids in first-occurrence order. It is an
// open-addressed table sized to the set, not to the key space (a table's rows
// or prefixes), and it is never cleared: a slot is live iff its stamp equals
// the current generation, so Begin costs O(1) once the table has grown to the
// largest set seen. The zero value is ready to use.
type Index struct {
	key   []int
	id    []int32
	stamp []uint32
	gen   uint32
	shift uint // 64 − log₂ len(key): the hash keeps the product's top bits
}

// Begin starts a new key set of at most n keys. The table holds a power of
// two ≥ 2n slots, so at least half stay free and every probe ends.
func (u *Index) Begin(n int) {
	if want := max(2*n, 16); len(u.key) < want {
		u.grow(want)
	}
	u.gen++
	if u.gen == 0 { // wrapped: stamps of 2³² generations ago would read as live
		clear(u.stamp)
		u.gen = 1
	}
}

// Slots returns the table's size: the power of two ≥ 2n slots the largest
// set begun so far needed, which is what bounds the memory a caller holds.
func (u *Index) Slots() int { return len(u.key) }

// grow replaces the table by an empty one of the first power of two ≥ want.
func (u *Index) grow(want int) {
	log2 := bits.Len(uint(want - 1))
	u.key = make([]int, 1<<log2)
	u.id = make([]int32, 1<<log2)
	u.stamp = make([]uint32, 1<<log2)
	u.gen, u.shift = 0, uint(64-log2)
}

// IDOf returns key's id in the current set; a key not seen since Begin is
// recorded under next, the id the caller hands out, and reported fresh.
func (u *Index) IDOf(key, next int) (id int, fresh bool) {
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

// Find returns key's id in the current set without recording it: the
// read-only probe of a set built by IDOf (ps.Cache's id → slot lookup). Its
// loop repeats IDOf's rather than sharing a helper, which would push IDOf
// over the compiler's inlining budget; every dedup loop inlines IDOf.
func (u *Index) Find(key int) (id int, ok bool) {
	if len(u.key) == 0 {
		return 0, false
	}
	mask := len(u.key) - 1
	for s := int((uint64(key) * 0x9E3779B97F4A7C15) >> u.shift); ; s = (s + 1) & mask {
		if u.stamp[s] != u.gen {
			return 0, false
		}
		if u.key[s] == key {
			return int(u.id[s]), true
		}
	}
}

// Unique returns the distinct values of indices in order of first occurrence
// together with an inverse mapping: indices[p] == uniq[inverse[p]]. It is the
// shared primitive behind in-advance gradient aggregation and the paper's
// Figure 4(b) statistic. The result is fresh; Index.UniqueInto is the same
// dedup into reused storage.
func Unique(indices []int) (uniq []int, inverse []int) {
	var seen Index
	return seen.UniqueInto(indices, nil, nil)
}

// UniqueInto is Unique(indices) through u, into the storage of uniq and
// inverse: storage shorter than len(indices) is replaced by new, so once it
// has held a set of n indices, deduplicating n or fewer allocates nothing.
// The index is free again when UniqueInto returns; the result lives in the
// caller's storage.
func (u *Index) UniqueInto(indices, uniq, inverse []int) ([]int, []int) {
	n := len(indices)
	u.Begin(n)
	if cap(uniq) < n || cap(inverse) < n {
		uniq, inverse = make([]int, n), make([]int, n)
	}
	uniq, inverse = uniq[:n], inverse[:n]
	k := 0
	for p, idx := range indices {
		id, fresh := u.IDOf(idx, k)
		if fresh {
			uniq[k] = idx
			k++
		}
		inverse[p] = id
	}
	return uniq[:k], inverse
}
