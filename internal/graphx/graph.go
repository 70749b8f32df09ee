// Package graphx provides the weighted undirected graph and the
// modularity-based community detection (Louvain) that the paper's
// locality-based index reordering builds on (§IV-C, references [34]-[36]).
package graphx

import (
	"fmt"
	"sort"
)

// Graph is an undirected weighted graph over nodes 0..N-1 with support for
// accumulating parallel edges (repeated AddEdge calls sum their weights).
type Graph struct {
	n     int
	adj   []map[int]float64 // adj[u][v] = edge weight (symmetric, v != u)
	loops []float64         // self-loop weight per node
	deg   []float64         // weighted degree, accumulated in insertion order
	m     float64           // total undirected edge weight incl. self loops
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		//elrec:invariant construction contract: node counts derive from validated table sizes
		panic(fmt.Sprintf("graphx: negative node count %d", n))
	}
	return &Graph{
		n:     n,
		adj:   make([]map[int]float64, n),
		loops: make([]float64, n),
		deg:   make([]float64, n),
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// TotalWeight returns the sum of undirected edge weights (self loops counted
// once), the quantity m in the modularity definition.
func (g *Graph) TotalWeight() float64 { return g.m }

// AddEdge accumulates weight w on the undirected edge {u,v}; u == v adds a
// self loop. Weights must be positive.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		//elrec:invariant hot-path bounds contract: reorder.Build validates every index before graph construction
		panic(fmt.Sprintf("graphx: edge (%d,%d) outside %d nodes", u, v, g.n))
	}
	if w <= 0 {
		//elrec:invariant co-occurrence weights are positive by construction
		panic(fmt.Sprintf("graphx: non-positive edge weight %v", w))
	}
	if u == v {
		g.loops[u] += w
		g.deg[u] += 2 * w
		g.m += w
		return
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]float64)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]float64)
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
	g.deg[u] += w
	g.deg[v] += w
	g.m += w
}

// EdgeWeight returns the weight of the undirected edge {u,v} (0 if absent).
func (g *Graph) EdgeWeight(u, v int) float64 {
	if u == v {
		return g.loops[u]
	}
	if g.adj[u] == nil {
		return 0
	}
	return g.adj[u][v]
}

// Degree returns the weighted degree of u: the sum of incident edge weights
// with self loops counted twice (the standard modularity convention). The
// value is accumulated at AddEdge time in insertion order, so identical
// edge sequences give bit-identical degrees — community detection must be
// deterministic because the index bijections it produces feed training.
func (g *Graph) Degree(u int) float64 { return g.deg[u] }

// Neighbors calls fn for every neighbor v of u (excluding self loops) in
// ascending node order, so graph traversals are deterministic.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	vs := make([]int, 0, len(g.adj[u]))
	//elrec:orderless keys are sorted before any order-sensitive use
	for v := range g.adj[u] {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs {
		fn(v, g.adj[u][v])
	}
}

// NumEdges returns the number of distinct undirected edges (self loops
// included).
func (g *Graph) NumEdges() int {
	cnt := 0
	for u := 0; u < g.n; u++ {
		cnt += len(g.adj[u])
		if g.loops[u] > 0 {
			cnt += 2 // counted once after halving below
		}
	}
	return cnt / 2
}
