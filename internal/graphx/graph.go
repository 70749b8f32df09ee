// Package graphx provides the weighted undirected graph and the
// modularity-based community detection (Louvain) that the paper's
// locality-based index reordering builds on (§IV-C, references [34]-[36]).
package graphx

import (
	"fmt"
	"math"
)

// Graph is an immutable undirected weighted graph over nodes 0..N-1 in
// compressed sparse row form. Row u lists u's neighbours (self loops
// excluded) in ascending node order, parallel edges summed in the order
// they were added, so every traversal — and every float sum over one — is
// deterministic: the index bijections community detection produces feed
// training. A Builder makes one.
type Graph struct {
	start []int     // row u is nbr[start[u]:start[u+1]], wt likewise
	nbr   []int32   // neighbour ids, ascending within a row
	wt    []float64 // summed weight of the edge to nbr[p]
	loops []float64 // self-loop weight per node
	deg   []float64 // weighted degree, accumulated in AddEdge call order
	m     float64   // total undirected edge weight incl. self loops
}

// Degree returns the weighted degree of u: the sum of incident edge weights
// with self loops counted twice (the standard modularity convention). The
// value is accumulated in AddEdge call order, so identical edge sequences
// give bit-identical degrees.
func (g *Graph) Degree(u int) float64 { return g.deg[u] }

// numNodes returns the node count.
func (g *Graph) numNodes() int { return len(g.deg) }

// edge is one AddEdge call between distinct nodes.
type edge struct {
	u, v int32
	w    float64
}

// Builder accumulates a Graph's edges in call order.
type Builder struct {
	g     Graph
	edges []edge
}

// NewBuilder returns a builder for a graph with n nodes and room for
// edgeCap AddEdge calls between distinct nodes without growing.
func NewBuilder(n, edgeCap int) *Builder {
	if n < 0 || n > 1<<31-1 {
		panic(fmt.Sprintf("graphx: node count %d outside [0, 2^31)", n))
	}
	return &Builder{
		g:     Graph{loops: make([]float64, n), deg: make([]float64, n)},
		edges: make([]edge, 0, edgeCap),
	}
}

// AddEdge accumulates weight w on the undirected edge {u,v}; u == v adds a
// self loop. Weights must be positive.
func (b *Builder) AddEdge(u, v int, w float64) {
	g := &b.g
	if n := g.numNodes(); u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graphx: edge (%d,%d) outside %d nodes", u, v, n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graphx: non-positive edge weight %v", w))
	}
	g.m += w
	if u == v {
		g.loops[u] += w
		g.deg[u] += 2 * w
		return
	}
	b.edges = append(b.edges, edge{int32(u), int32(v), w})
	g.deg[u] += w
	g.deg[v] += w
}

// Graph returns the built graph. The builder must not be used afterwards.
//
// Each edge becomes two directed entries. A counting sort by neighbour and
// then a stable one by source leave every row sorted by neighbour with
// parallel entries in call order, which are then summed left to right.
func (b *Builder) Graph() *Graph {
	g := &b.g
	n := g.numNodes()
	if len(b.edges) > math.MaxInt32/2 {
		panic(fmt.Sprintf("graphx: %d edges exceed 2^30", len(b.edges)))
	}
	start := make([]int, n+1) // start[u+1] counts u's entries, then prefix-summed
	for _, e := range b.edges {
		start[e.u+1]++
		start[e.v+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	entries := start[n]

	// By neighbour, in call order: entry 2k is edge k seen from u (so its
	// neighbour is v), entry 2k+1 the same edge seen from v.
	pos := make([]int, n)
	copy(pos, start)
	byNbr := make([]int32, entries)
	for k, e := range b.edges {
		byNbr[pos[e.v]] = int32(2 * k)
		pos[e.v]++
		byNbr[pos[e.u]] = int32(2*k + 1)
		pos[e.u]++
	}

	// By source, walking neighbours in ascending order.
	copy(pos, start)
	nbr := make([]int32, entries)
	wt := make([]float64, entries)
	for v := 0; v < n; v++ {
		for _, d := range byNbr[start[v]:start[v+1]] {
			e := b.edges[d>>1]
			u := e.u
			if d&1 == 1 {
				u = e.v
			}
			q := pos[u]
			nbr[q], wt[q] = int32(v), e.w
			pos[u]++
		}
	}
	b.edges = nil

	// Sum parallel entries in place; start[u] is rewritten only after row
	// u's old bounds are read.
	out := 0
	for u := 0; u < n; u++ {
		lo, hi := start[u], start[u+1]
		start[u] = out
		for p := lo; p < hi; p++ {
			if out > start[u] && nbr[out-1] == nbr[p] {
				wt[out-1] += wt[p]
				continue
			}
			nbr[out], wt[out] = nbr[p], wt[p]
			out++
		}
	}
	start[n] = out
	g.start, g.nbr, g.wt = start, nbr[:out], wt[:out]
	return g
}
