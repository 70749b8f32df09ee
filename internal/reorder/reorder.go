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

// Bijection is a permutation of one table's row ids. It stores only the
// rows with a nonzero profile count — their raw ids, ascending, and their
// new ids — and computes every other row's: a zero-count row keeps its
// frequency rank, pos plus its position among the zero-count rows, unless
// the index graph spanned that rank (zeroNew, empty when the counts come
// from the profiled batches). Its size follows the profile, not the table.
type Bijection struct {
	n    int     // table rows
	pos  int     // rows with a positive count: the first zero-count rank
	raws []int32 // the rows with a nonzero count, ascending
	news []int32 // news[i] = new id of raws[i]
	// The stored rows in [k<<shift, (k+1)<<shift) are raws[dir[k]:dir[k+1]]:
	// no more buckets than stored rows, so At searches about one row.
	shift uint
	dir   []int32
	// Zero-count row z (in id order) takes zeroNew[z−zeroLo] when that is
	// in range: the ranks the index graph reordered.
	zeroLo  int
	zeroNew []int32
}

// index builds dir over raws.
func (b *Bijection) index() {
	for (b.n-1)>>b.shift >= max(len(b.raws), 1) {
		b.shift++
	}
	b.dir = make([]int32, (b.n-1)>>b.shift+2)
	for _, raw := range b.raws {
		b.dir[raw>>b.shift+1]++
	}
	for k := 1; k < len(b.dir); k++ {
		b.dir[k] += b.dir[k-1]
	}
}

// At returns the new id of raw row raw: a binary search over the stored
// rows of raw's bucket. It panics on a raw id outside [0, Len()).
func (b *Bijection) At(raw int) int {
	if raw < 0 || raw >= b.n {
		panic(fmt.Sprintf("reorder: row %d outside [0,%d)", raw, b.n))
	}
	lo, hi := b.dir[raw>>b.shift], b.dir[raw>>b.shift+1]
	i, found := slices.BinarySearch(b.raws[lo:hi], int32(raw))
	i += int(lo) // the stored rows below raw
	if found {
		return int(b.news[i])
	}
	z := raw - i // raw's position among the zero-count rows
	if k := z - b.zeroLo; k >= 0 && k < len(b.zeroNew) {
		return int(b.zeroNew[k])
	}
	return b.pos + z
}

// Apply maps raw indices to reordered indices, returning a new slice.
func (b *Bijection) Apply(indices []int) []int {
	out := slices.Clone(indices)
	b.ApplyInPlace(out)
	return out
}

// ApplyInPlace maps raw indices to reordered indices in place.
func (b *Bijection) ApplyInPlace(indices []int) {
	for i, idx := range indices {
		indices[i] = b.At(idx)
	}
}

// Len returns the table size the bijection covers.
func (b *Bijection) Len() int { return b.n }

// Validate reports whether the bijection is a permutation: every new id is
// in range and assigned once.
func (b *Bijection) Validate() error {
	seen := make([]bool, b.n)
	for raw := range b.n {
		nw := b.At(raw)
		if nw < 0 || nw >= b.n {
			return fmt.Errorf("reorder: row %d maps to %d, outside [0,%d)", raw, nw, b.n)
		}
		if seen[nw] {
			return fmt.Errorf("reorder: new id %d assigned twice", nw)
		}
		seen[nw] = true
	}
	return nil
}

// frequencyOrder returns the bijection that maps every row to its frequency
// rank: count descending, ties by row id (0 = most accessed). This is the
// Fre_order input of Algorithm 2. It reads counts once and sorts only the
// rows with a nonzero count; the zero-count rows take the ranks between the
// positive and the negative ones in id order. byRank lists the stored rows
// (positions in raws) by rank, the zero-count ranks left out.
func frequencyOrder(counts []int64) (b *Bijection, byRank []int32) {
	b = &Bijection{n: len(counts)}
	var nonzero []int64 // the counts of raws
	for idx, c := range counts {
		if c != 0 {
			b.raws = append(b.raws, int32(idx))
			nonzero = append(nonzero, c)
			if c > 0 {
				b.pos++
			}
		}
	}
	b.index()
	byRank = make([]int32, len(b.raws))
	for i := range byRank {
		byRank[i] = int32(i)
	}
	slices.SortFunc(byRank, func(x, y int32) int {
		if c := cmp.Compare(nonzero[y], nonzero[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	b.news = make([]int32, len(b.raws))
	zeros := b.n - len(b.raws)
	for r, i := range byRank {
		if r >= b.pos {
			r += zeros
		}
		b.news[i] = int32(r)
	}
	return b, byRank
}

// buildIndexGraph implements Algorithm 2: every batch contributes an edge
// between each pair of distinct non-hot rows it touches. Node = rank −
// hotCount, for the first graphNodes non-hot ranks, freq giving the ranks.
// The graph spans only the nodes up to the highest one a batch touches:
// every later node would be an isolated, weight-0 singleton that Build's
// community order leaves where it is. It returns nil when no batch touches
// a node.
func buildIndexGraph(freq *Bijection, batches [][]int, hotCount, graphNodes, maxPairs int) *graphx.Graph {
	touched := 0
	for _, batch := range batches {
		for _, idx := range batch {
			if node := freq.At(idx) - hotCount; node >= 0 && node < graphNodes {
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
			node := freq.At(idx) - hotCount
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
// detection → contiguous id assignment. Build runs offline. It reads counts
// once; beyond that, its time and memory follow the rows with a nonzero
// count and the ranks the batches touch, and so does the bijection's size.
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

	// The bijection starts as the frequency rank: hot ranks, the ranks
	// beyond the graph cap and untouched graph ranks keep it as their new id.
	bij, byRank := frequencyOrder(counts)
	hotCount := int(cfg.HotRatio * float64(n))
	graphNodes := min(n-hotCount, cfg.MaxGraphNodes)
	g := buildIndexGraph(bij, batches, hotCount, graphNodes, cfg.MaxPairsPerBatch)
	if g == nil {
		return bij, nil
	}
	order := communityOrder(g, graphx.Louvain(g))
	// Graph rank r is a stored row's, or the zero-count ranks' [pos,
	// pos+zeros) where the graph spans them ([lo,hi), kept in zeroNew).
	zeros := n - len(bij.raws)
	lo := max(bij.pos, hotCount)
	if hi := min(bij.pos+zeros, hotCount+len(order)); lo < hi {
		bij.zeroLo, bij.zeroNew = lo-bij.pos, make([]int32, hi-lo)
	}
	for seq, node := range order {
		nw := int32(hotCount + seq)
		switch r := hotCount + node; {
		case r < bij.pos:
			bij.news[byRank[r]] = nw
		case r < bij.pos+zeros:
			bij.zeroNew[r-lo] = nw
		default:
			bij.news[byRank[r-zeros]] = nw
		}
	}
	return bij, nil
}
