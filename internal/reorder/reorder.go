// Package reorder implements the paper's locality-based index reordering
// (§IV): an offline bijection over the rows of one embedding table that
// (1) gathers the most frequently accessed ("hot") rows at the front using
// global access statistics, and (2) assigns the remaining rows contiguous
// ids community-by-community, where communities come from modularity-based
// detection (Louvain) on the index co-occurrence graph of Algorithm 2.
// Rows that are close in the new id space share TT-index prefixes, which
// multiplies the Eff-TT table's intermediate-result reuse.
package reorder

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graphx"
)

// Config tunes bijection generation. Build refuses a HotRatio outside [0,1]
// (NaN included) and negative caps.
type Config struct {
	// HotRatio is the fraction of table rows treated as hot (Algorithm 2's
	// Hot_ratio); hot rows occupy the first ids, ordered by frequency, and
	// do not join the index graph.
	HotRatio float64
	// MaxGraphNodes caps the number of non-hot rows that join the index
	// graph; colder rows keep their frequency order. Bounds memory on huge
	// tables. 0 means a default of 1<<20.
	MaxGraphNodes int
	// MaxPairsPerBatch caps the number of co-occurrence edges generated per
	// batch (Algorithm 2's self_combinations is quadratic in batch size);
	// beyond the cap, a deterministic stride subsamples pairs. 0 means a
	// default of 1<<16.
	MaxPairsPerBatch int
}

// DefaultConfig mirrors the paper's setup: 5% hot rows.
func DefaultConfig() Config {
	return Config{HotRatio: 0.05}
}

// normalize validates c and fills in the defaults of its zero caps.
func (c *Config) normalize() error {
	if !(c.HotRatio >= 0 && c.HotRatio <= 1) { // NaN fails both
		return fmt.Errorf("reorder: HotRatio %v outside [0,1]", c.HotRatio)
	}
	if c.MaxGraphNodes < 0 {
		return fmt.Errorf("reorder: MaxGraphNodes %d is negative", c.MaxGraphNodes)
	}
	if c.MaxPairsPerBatch < 0 {
		return fmt.Errorf("reorder: MaxPairsPerBatch %d is negative", c.MaxPairsPerBatch)
	}
	if c.MaxGraphNodes == 0 {
		c.MaxGraphNodes = 1 << 20
	}
	if c.MaxPairsPerBatch == 0 {
		c.MaxPairsPerBatch = 1 << 16
	}
	return nil
}

// Bijection is a permutation of one table's row ids.
type Bijection struct {
	Forward []int32 // Forward[raw] = new id
}

// Apply maps raw indices to reordered indices, returning a new slice.
func (b *Bijection) Apply(indices []int) []int {
	out := make([]int, len(indices))
	for i, idx := range indices {
		out[i] = int(b.Forward[idx])
	}
	return out
}

// ApplyInPlace maps raw indices to reordered indices in place.
func (b *Bijection) ApplyInPlace(indices []int) {
	for i, idx := range indices {
		indices[i] = int(b.Forward[idx])
	}
}

// Len returns the table size the bijection covers.
func (b *Bijection) Len() int { return len(b.Forward) }

// Validate reports whether the bijection is a permutation: every new id is
// in range and assigned once.
func (b *Bijection) Validate() error {
	seen := make([]bool, len(b.Forward))
	for raw, nw := range b.Forward {
		if nw < 0 || int(nw) >= len(b.Forward) {
			return fmt.Errorf("reorder: Forward[%d] = %d out of range", raw, nw)
		}
		if seen[nw] {
			return fmt.Errorf("reorder: new id %d assigned twice", nw)
		}
		seen[nw] = true
	}
	return nil
}

// frequencyOrder returns rank[idx] = frequency rank of row idx: count
// descending, ties by row id (0 = most accessed). This is the Fre_order
// input of Algorithm 2. Only rows with a nonzero count are sorted; the
// zero-count rows take the ranks between the positive and the negative
// ones in id order.
func frequencyOrder(counts []int64) []int32 {
	pos, nonzero := 0, 0
	for _, c := range counts {
		if c > 0 {
			pos++
		}
		if c != 0 {
			nonzero++
		}
	}
	sorted := make([]int32, 0, nonzero)
	for idx, c := range counts {
		if c != 0 {
			sorted = append(sorted, int32(idx))
		}
	}
	slices.SortFunc(sorted, func(a, b int32) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rank := make([]int32, len(counts))
	zeros := len(counts) - nonzero
	for r, idx := range sorted {
		if r >= pos {
			r += zeros
		}
		rank[idx] = int32(r)
	}
	r := int32(pos)
	for idx, c := range counts {
		if c == 0 {
			rank[idx] = r
			r++
		}
	}
	return rank
}

// buildIndexGraph implements Algorithm 2: every batch contributes an edge
// between each pair of distinct non-hot rows it touches. Node = rank −
// hotCount, for the first graphNodes non-hot ranks. The graph spans only
// the nodes up to the highest one a batch touches: every later node would
// be an isolated, weight-0 singleton that Build's community order leaves
// where it is. It returns nil when no batch touches a node.
func buildIndexGraph(rank []int32, batches [][]int, hotCount, graphNodes, maxPairs int) *graphx.Graph {
	touched := 0
	for _, batch := range batches {
		for _, idx := range batch {
			if node := int(rank[idx]) - hotCount; node >= 0 && node < graphNodes {
				touched = max(touched, node+1)
			}
		}
	}
	if touched == 0 {
		return nil
	}
	// Each batch's distinct nodes in first-occurrence order, flattened, so
	// the builder can be sized to the exact edge count.
	seen := make([]int, touched) // 1 + the last batch that held the node
	var nodes []int32
	ends := make([]int, len(batches))
	edges := 0
	for bi, batch := range batches {
		first := len(nodes)
		for _, idx := range batch {
			node := int(rank[idx]) - hotCount
			if node < 0 || node >= touched || seen[node] == bi+1 {
				continue
			}
			seen[node] = bi + 1
			nodes = append(nodes, int32(node))
		}
		ends[bi] = len(nodes)
		total, stride := pairStride(len(nodes)-first, maxPairs)
		edges += (total + stride - 1) / stride
	}
	b := graphx.NewBuilder(touched, edges)
	first := 0
	for _, end := range ends {
		addPairEdges(b, nodes[first:end], maxPairs)
		first = end
	}
	return b.Graph()
}

// pairStride returns the number of pairs among k nodes and the stride that
// keeps at most maxPairs (≥ 1) of them.
func pairStride(k, maxPairs int) (total, stride int) {
	total = k * (k - 1) / 2
	stride = 1
	if total > maxPairs {
		stride = (total + maxPairs - 1) / maxPairs
	}
	return total, stride
}

// addPairEdges adds self-combination edges among nodes, deterministically
// subsampling with a stride when the pair count exceeds maxPairs.
func addPairEdges(b *graphx.Builder, nodes []int32, maxPairs int) {
	_, stride := pairStride(len(nodes), maxPairs)
	pair := 0
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if pair%stride == 0 {
				b.AddEdge(int(nodes[i]), int(nodes[j]), 1)
			}
			pair++
		}
	}
}

// communityOrder returns g's nodes ordered by (community weight desc,
// community id, node): heavier communities land earlier; within a
// community the hotter rows come first. A community's weight sums its
// nodes' degrees in node order; the nodes are then counting-sorted.
func communityOrder(g *graphx.Graph, comm []int) []int {
	k := 0
	for _, c := range comm {
		k = max(k, c+1)
	}
	weight := make([]float64, k)
	next := make([]int, k) // community size, then its next free position
	for node, c := range comm {
		weight[c] += g.Degree(node)
		next[c]++
	}
	ids := make([]int, k)
	for c := range ids {
		ids[c] = c
	}
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(weight[b], weight[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	pos := 0
	for _, c := range ids {
		size := next[c]
		next[c] = pos
		pos += size
	}
	order := make([]int, len(comm))
	for node, c := range comm {
		order[next[c]] = node
		next[c]++
	}
	return order
}

// Build generates the index bijection of one table from its access counts
// (global information) and a sample of batched indices (local information).
// The pipeline is Figure 8: frequency ordering → index graph → community
// detection → contiguous id assignment. Build runs offline. Beyond the
// bijection's two table-sized arrays, its time and memory follow the rows
// with a nonzero count and the ranks the batches touch. Applying the
// bijection at train time is a single array lookup per index.
func Build(counts []int64, batches [][]int, cfg Config) (*Bijection, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := len(counts)
	if n == 0 {
		return nil, fmt.Errorf("reorder: empty counts")
	}
	for bi, batch := range batches {
		for _, idx := range batch {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("reorder: batch %d contains index %d outside [0,%d)", bi, idx, n)
			}
		}
	}

	// Forward starts as the frequency rank: hot ranks, the ranks beyond the
	// graph cap and untouched graph ranks keep it as their new id.
	bij := &Bijection{Forward: frequencyOrder(counts)}
	hotCount := int(cfg.HotRatio * float64(n))
	graphNodes := min(n-hotCount, cfg.MaxGraphNodes)
	g := buildIndexGraph(bij.Forward, batches, hotCount, graphNodes, cfg.MaxPairsPerBatch)
	if g == nil {
		return bij, nil
	}
	order := communityOrder(g, graphx.Louvain(g))
	// rawOfNode[node] is the raw id of graph rank hotCount+node: the
	// inverse of Forward, only where the graph reorders.
	rawOfNode := make([]int32, len(order))
	for raw, r := range bij.Forward {
		if node := int(r) - hotCount; node >= 0 && node < len(order) {
			rawOfNode[node] = int32(raw)
		}
	}
	for seq, node := range order {
		bij.Forward[rawOfNode[node]] = int32(hotCount + seq)
	}
	return bij, nil
}
