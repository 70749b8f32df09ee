package graphx

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// refGraph is the map-based graph the CSR Graph replaced, kept with its
// Louvain as the oracle of TestLouvainMatchesReference. Its code is the old
// Graph's and Louvain's, renamed (refGraph, newRefGraph, refLouvain, …).
type refGraph struct {
	n     int
	adj   []map[int]float64 // adj[u][v] = edge weight (symmetric, v != u)
	loops []float64         // self-loop weight per node
	deg   []float64         // weighted degree, accumulated in insertion order
	m     float64           // total undirected edge weight incl. self loops
}

func newRefGraph(n int) *refGraph {
	return &refGraph{n: n, adj: make([]map[int]float64, n), loops: make([]float64, n), deg: make([]float64, n)}
}

func (g *refGraph) addEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || w <= 0 {
		panic(fmt.Sprintf("refGraph: bad edge (%d,%d,%v)", u, v, w))
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

func (g *refGraph) neighbors(u int, fn func(v int, w float64)) {
	vs := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs {
		fn(v, g.adj[u][v])
	}
}

func refLouvain(g *refGraph) []int {
	assignment := make([]int, g.n)
	for i := range assignment {
		assignment[i] = i
	}
	work := g
	for {
		comm, improved := refLocalMoving(work)
		if !improved {
			break
		}
		remap := map[int]int{}
		for _, c := range comm {
			if _, ok := remap[c]; !ok {
				remap[c] = len(remap)
			}
		}
		for u := range comm {
			comm[u] = remap[comm[u]]
		}
		for i := range assignment {
			assignment[i] = comm[assignment[i]]
		}
		if len(remap) == work.n {
			break
		}
		work = refAggregate(work, comm, len(remap))
	}
	remap := map[int]int{}
	for i, c := range assignment {
		nc, ok := remap[c]
		if !ok {
			nc = len(remap)
			remap[c] = nc
		}
		assignment[i] = nc
	}
	return assignment
}

func refLocalMoving(g *refGraph) (comm []int, improved bool) {
	n := g.n
	comm = make([]int, n)
	commTot := make([]float64, n)
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		comm[u] = u
		deg[u] = g.deg[u]
		commTot[u] = deg[u]
	}
	m2 := 2 * g.m
	if m2 == 0 {
		return comm, false
	}
	neighWeight := make(map[int]float64)
	var cands []int
	for pass := 0; pass < 32; pass++ {
		moves := 0
		for u := 0; u < n; u++ {
			cu := comm[u]
			clear(neighWeight)
			cands = cands[:0]
			g.neighbors(u, func(v int, w float64) {
				c := comm[v]
				if _, ok := neighWeight[c]; !ok {
					cands = append(cands, c)
				}
				neighWeight[c] += w
			})
			sortInts(cands)
			commTot[cu] -= deg[u]
			best, bestGain := cu, neighWeight[cu]-commTot[cu]*deg[u]/m2
			for _, c := range cands {
				if c == cu {
					continue
				}
				gain := neighWeight[c] - commTot[c]*deg[u]/m2
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				}
			}
			commTot[best] += deg[u]
			if best != cu {
				comm[u] = best
				moves++
			}
		}
		if moves == 0 {
			break
		}
		improved = true
	}
	return comm, improved
}

func refAggregate(g *refGraph, comm []int, numComm int) *refGraph {
	out := newRefGraph(numComm)
	for u := 0; u < g.n; u++ {
		cu := comm[u]
		if w := g.loops[u]; w > 0 {
			out.addEdge(cu, cu, w)
		}
		g.neighbors(u, func(v int, w float64) {
			if u < v {
				cv := comm[v]
				if cu == cv {
					out.addEdge(cu, cu, w)
				} else {
					out.addEdge(cu, cv, w)
				}
			}
		})
	}
	return out
}

// TestLouvainMatchesReference builds the CSR Graph and the map-based
// reference from one generated AddEdge sequence — non-integer weights over
// eight binades, parallel edges, self loops, isolated nodes, and planted
// groups so that aggregation runs for several levels — and requires the two
// to agree bit for bit: every degree, self loop and neighbour weight, the
// total weight, and the Louvain partition.
func TestLouvainMatchesReference(t *testing.T) {
	r := tensor.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(80)
		b, ref := NewBuilder(n, 0), newRefGraph(n)
		if n > 0 {
			groups := 1 + r.Intn(6)
			edges := r.Intn(4 * n)
			for e := 0; e < edges; e++ {
				u := r.Intn(n)
				v := r.Intn(n)
				if r.Float64() < 0.7 { // stay inside u's planted group
					v = (u + groups*r.Intn(n)) % n
				}
				if r.Float64() < 0.05 {
					v = u
				}
				w := math.Ldexp(0.5+r.Float64(), r.Intn(8)-4)
				b.AddEdge(u, v, w)
				ref.addEdge(u, v, w)
			}
		}
		g := b.Graph()
		if math.Float64bits(g.m) != math.Float64bits(ref.m) {
			t.Fatalf("trial %d: total weight %v, reference %v", trial, g.m, ref.m)
		}
		for u := 0; u < n; u++ {
			if math.Float64bits(g.Degree(u)) != math.Float64bits(ref.deg[u]) ||
				math.Float64bits(g.loops[u]) != math.Float64bits(ref.loops[u]) {
				t.Fatalf("trial %d node %d: degree %v loop %v, reference %v %v",
					trial, u, g.Degree(u), g.loops[u], ref.deg[u], ref.loops[u])
			}
			var got, want []float64
			g.Neighbors(u, func(v int, w float64) { got = append(got, float64(v), w) })
			ref.neighbors(u, func(v int, w float64) { want = append(want, float64(v), w) })
			if len(got) != len(want) {
				t.Fatalf("trial %d node %d: neighbours %v, reference %v", trial, u, got, want)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d node %d: neighbours %v, reference %v", trial, u, got, want)
				}
			}
		}
		got, want := Louvain(g), refLouvain(ref)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Louvain %v, reference %v", trial, got, want)
			}
		}
	}
}
