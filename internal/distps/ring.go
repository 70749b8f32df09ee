package distps

import (
	"sort"

	"repro/internal/tensor"
)

// ringVnodes is the number of virtual nodes per shard. 64 points per shard
// keeps the worst-case row imbalance small at the shard counts this package
// targets (single digits) while the ring stays tiny.
const ringVnodes = 64

// hashRing is the consistent-hash map from (table, row) keys to shard ids. It
// is a pure function of the shard count, so every worker and every shard
// computes an identical ring without any coordination — there is no shard
// map to distribute, and an observer that knows only N can locate any row.
//
// Consistent hashing (rather than row % N) keeps the door open for
// elastic reshards: adding a shard moves ~1/N of the rows instead of
// nearly all of them.
type hashRing struct {
	points []ringPoint // sorted by hash, ascending
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newHashRing builds the ring for n shards (n >= 1).
func newHashRing(n int) *hashRing {
	if n < 1 {
		n = 1
	}
	r := &hashRing{points: make([]ringPoint, 0, n*ringVnodes)}
	for s := 0; s < n; s++ {
		for v := 0; v < ringVnodes; v++ {
			// Salt the vnode key away from the row key space.
			h := tensor.Mix64(0x5ead0000_00000000 ^ uint64(s)<<20 ^ uint64(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on shard id so the ring is a total order and every
		// participant resolves an (astronomically unlikely) hash collision
		// the same way.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// owner returns the shard that owns row `row` of model table `table`: the
// first ring point at or after the key's hash, wrapping around.
func (r *hashRing) owner(table, row int) int {
	h := tensor.Mix64(tensor.Mix64(uint64(table)+0x9e3779b97f4a7c15) ^ uint64(row))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
