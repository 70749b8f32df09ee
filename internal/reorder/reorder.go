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
	"fmt"
	"sort"

	"repro/internal/graphx"
)

// Config tunes bijection generation.
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

func (c *Config) normalize() {
	if c.MaxGraphNodes == 0 {
		c.MaxGraphNodes = 1 << 20
	}
	if c.MaxPairsPerBatch == 0 {
		c.MaxPairsPerBatch = 1 << 16
	}
}

// Bijection is a permutation of one table's row ids.
type Bijection struct {
	Forward []int32 // Forward[raw] = new id
	Inverse []int32 // Inverse[new] = raw id
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

// Validate reports whether the bijection is a permutation.
func (b *Bijection) Validate() error {
	if len(b.Forward) != len(b.Inverse) {
		return fmt.Errorf("reorder: forward/inverse length mismatch %d/%d", len(b.Forward), len(b.Inverse))
	}
	seen := make([]bool, len(b.Forward))
	for raw, nw := range b.Forward {
		if nw < 0 || int(nw) >= len(b.Forward) {
			return fmt.Errorf("reorder: Forward[%d] = %d out of range", raw, nw)
		}
		if seen[nw] {
			return fmt.Errorf("reorder: new id %d assigned twice", nw)
		}
		seen[nw] = true
		if b.Inverse[nw] != int32(raw) {
			return fmt.Errorf("reorder: Inverse[%d] = %d want %d", nw, b.Inverse[nw], raw)
		}
	}
	return nil
}

// FrequencyOrder returns rank[idx] = frequency rank of row idx
// (0 = most accessed; ties broken by row id for determinism). This is the
// Fre_order input of Algorithm 2.
func FrequencyOrder(counts []int64) []int {
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if counts[order[a]] != counts[order[b]] {
			return counts[order[a]] > counts[order[b]]
		}
		return order[a] < order[b]
	})
	rank := make([]int, len(counts))
	for r, idx := range order {
		rank[idx] = r
	}
	return rank
}

// BuildIndexGraph implements Algorithm 2: every batch contributes an edge
// between each pair of distinct non-hot rows it touches (in frequency-rank
// space shifted by the hot threshold). graphNodes is the number of non-hot
// ranks participating.
func BuildIndexGraph(rank []int, batches [][]int, hotCount, graphNodes, maxPairs int) *graphx.Graph {
	g := graphx.NewGraph(graphNodes)
	var nodes []int
	for _, batch := range batches {
		nodes = nodes[:0]
		seen := make(map[int]struct{}, len(batch))
		for _, idx := range batch {
			r := rank[idx]
			// Hot rows (rank below the threshold) clamp to the front and
			// generate no edges; ranks beyond the graph cap are skipped.
			if r < hotCount || r >= hotCount+graphNodes {
				continue
			}
			node := r - hotCount
			if _, ok := seen[node]; ok {
				continue
			}
			seen[node] = struct{}{}
			nodes = append(nodes, node)
		}
		addPairEdges(g, nodes, maxPairs)
	}
	return g
}

// addPairEdges adds self-combination edges among nodes, deterministically
// subsampling with a stride when the pair count exceeds maxPairs.
func addPairEdges(g *graphx.Graph, nodes []int, maxPairs int) {
	n := len(nodes)
	total := n * (n - 1) / 2
	if total == 0 {
		return
	}
	stride := 1
	if total > maxPairs {
		stride = (total + maxPairs - 1) / maxPairs
	}
	pair := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pair%stride == 0 {
				g.AddEdge(nodes[i], nodes[j], 1)
			}
			pair++
		}
	}
}

// Build generates the index bijection of one table from its access counts
// (global information) and a sample of batched indices (local information).
// The pipeline is Figure 8: frequency ordering → index graph → community
// detection → contiguous id assignment. Build runs offline; applying the
// bijection at train time is a single array lookup per index.
func Build(counts []int64, batches [][]int, cfg Config) (*Bijection, error) {
	cfg.normalize()
	n := len(counts)
	if n == 0 {
		return nil, fmt.Errorf("reorder: empty counts")
	}
	if cfg.HotRatio < 0 || cfg.HotRatio > 1 {
		return nil, fmt.Errorf("reorder: hot ratio %v outside [0,1]", cfg.HotRatio)
	}
	for bi, batch := range batches {
		for _, idx := range batch {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("reorder: batch %d contains index %d outside [0,%d)", bi, idx, n)
			}
		}
	}

	rank := FrequencyOrder(counts)
	hotCount := int(cfg.HotRatio * float64(n))
	graphNodes := n - hotCount
	if graphNodes > cfg.MaxGraphNodes {
		graphNodes = cfg.MaxGraphNodes
	}

	// newOfRank[r] = final id of the row holding frequency rank r.
	newOfRank := make([]int32, n)
	// Hot block: ids 0..hotCount-1 in frequency order.
	for r := 0; r < hotCount; r++ {
		newOfRank[r] = int32(r)
	}
	// Tail beyond the graph: keep frequency order.
	for r := hotCount + graphNodes; r < n; r++ {
		newOfRank[r] = int32(r)
	}

	if graphNodes > 0 {
		g := BuildIndexGraph(rank, batches, hotCount, graphNodes, cfg.MaxPairsPerBatch)
		comm := graphx.Louvain(g)

		// Order nodes by (community weight desc, community id, rank asc):
		// heavier communities land earlier; within a community the hotter
		// rows come first.
		weight := make(map[int]float64)
		for node, c := range comm {
			weight[c] += g.Degree(node)
		}
		nodes := make([]int, graphNodes)
		for i := range nodes {
			nodes[i] = i
		}
		sort.SliceStable(nodes, func(a, b int) bool {
			ca, cb := comm[nodes[a]], comm[nodes[b]]
			if ca != cb {
				if weight[ca] != weight[cb] {
					return weight[ca] > weight[cb]
				}
				return ca < cb
			}
			return nodes[a] < nodes[b]
		})
		for seq, node := range nodes {
			newOfRank[hotCount+node] = int32(hotCount + seq)
		}
	}

	bij := &Bijection{Forward: make([]int32, n), Inverse: make([]int32, n)}
	for raw := 0; raw < n; raw++ {
		nw := newOfRank[rank[raw]]
		bij.Forward[raw] = nw
		bij.Inverse[nw] = int32(raw)
	}
	return bij, nil
}
