package graphx

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// mustQ evaluates Modularity, failing the test on an assignment error.
func mustQ(t *testing.T, g *Graph, comm []int) float64 {
	t.Helper()
	q, err := Modularity(g, comm)
	if err != nil {
		t.Fatalf("Modularity: %v", err)
	}
	return q
}

func TestAddEdgeAccumulates(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2)
	if w := g.EdgeWeight(0, 1); w != 3 {
		t.Fatalf("accumulated weight %v want 3", w)
	}
	if g.TotalWeight() != 3 {
		t.Fatalf("TotalWeight %v want 3", g.TotalWeight())
	}
}

func TestSelfLoop(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 0, 2)
	if g.EdgeWeight(0, 0) != 2 {
		t.Fatal("self loop weight wrong")
	}
	if d := g.Degree(0); d != 4 {
		t.Fatalf("self loop degree %v want 4 (counted twice)", d)
	}
}

func TestDegreeSum(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	var total float64
	for u := 0; u < 4; u++ {
		total += g.Degree(u)
	}
	if total != 2*g.TotalWeight() {
		t.Fatalf("Σdeg = %v want %v", total, 2*g.TotalWeight())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(2)
	for _, c := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 2, 1) },
		func() { g.AddEdge(0, 1, 0) },
		func() { g.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid AddEdge did not panic")
				}
			}()
			c()
		}()
	}
}

func TestNumEdges(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1) // parallel: same edge
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 1, 1)
	if n := g.NumEdges(); n != 3 {
		t.Fatalf("NumEdges = %d want 3", n)
	}
}

func TestModularityAllOneCommunityIsZero(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	comm := []int{0, 0, 0, 0}
	if q := mustQ(t, g, comm); math.Abs(q) > 1e-12 {
		t.Fatalf("single community Q = %v want 0", q)
	}
}

func TestModularityPerfectSplit(t *testing.T) {
	// Two disconnected cliques split correctly: Q = 1/2.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.AddEdge(e[0], e[1], 1)
	}
	comm := []int{0, 0, 0, 1, 1, 1}
	if q := mustQ(t, g, comm); math.Abs(q-0.5) > 1e-9 {
		t.Fatalf("perfect split Q = %v want 0.5", q)
	}
	// Bad split must be worse.
	bad := []int{0, 1, 0, 1, 0, 1}
	if mustQ(t, g, bad) >= 0.5 {
		t.Fatal("bad split not worse than perfect split")
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := NewGraph(3)
	if q := mustQ(t, g, []int{0, 1, 2}); q != 0 {
		t.Fatalf("empty graph Q = %v", q)
	}
}

func TestModularityLengthError(t *testing.T) {
	g := NewGraph(3)
	if _, err := Modularity(g, []int{0}); !errors.Is(err, ErrAssignment) {
		t.Fatalf("wrong assignment length: got %v, want ErrAssignment", err)
	}
}

func TestLouvainTwoCliques(t *testing.T) {
	g := NewGraph(8)
	clique := func(nodes []int) {
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				g.AddEdge(nodes[i], nodes[j], 1)
			}
		}
	}
	clique([]int{0, 1, 2, 3})
	clique([]int{4, 5, 6, 7})
	g.AddEdge(3, 4, 0.1) // weak bridge

	comm := Louvain(g)
	if comm[0] != comm[1] || comm[1] != comm[2] || comm[2] != comm[3] {
		t.Fatalf("first clique split: %v", comm)
	}
	if comm[4] != comm[5] || comm[5] != comm[6] || comm[6] != comm[7] {
		t.Fatalf("second clique split: %v", comm)
	}
	if comm[0] == comm[4] {
		t.Fatalf("cliques merged: %v", comm)
	}
}

func TestLouvainEmptyAndSingleton(t *testing.T) {
	if got := Louvain(NewGraph(0)); len(got) != 0 {
		t.Fatal("empty graph nonzero assignment")
	}
	got := Louvain(NewGraph(3)) // no edges: every node its own community
	seen := map[int]bool{}
	for _, c := range got {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Fatalf("edgeless graph communities: %v", got)
	}
}

func TestLouvainImprovesModularity(t *testing.T) {
	// Random graph with planted partition: Louvain's Q must beat the
	// trivial all-singletons and all-one-community assignments.
	r := tensor.NewRNG(1)
	const n, groups = 60, 4
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameGroup := i%groups == j%groups
			p := 0.02
			if sameGroup {
				p = 0.5
			}
			if r.Float64() < p {
				g.AddEdge(i, j, 1)
			}
		}
	}
	comm := Louvain(g)
	q := mustQ(t, g, comm)

	single := make([]int, n)
	for i := range single {
		single[i] = i
	}
	one := make([]int, n)
	if q <= mustQ(t, g, single) || q <= mustQ(t, g, one) {
		t.Fatalf("Louvain Q=%v no better than trivial assignments", q)
	}
	// Should recover (approximately) the planted structure: Q of the true
	// partition is a strong assignment; Louvain should reach at least 80%.
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i % groups
	}
	if qt := mustQ(t, g, truth); q < 0.8*qt {
		t.Fatalf("Louvain Q=%v far below planted Q=%v", q, qt)
	}
}

func TestLouvainAssignmentContiguous(t *testing.T) {
	g := NewGraph(10)
	for i := 0; i < 9; i++ {
		g.AddEdge(i, i+1, 1)
	}
	comm := Louvain(g)
	maxC := 0
	seen := map[int]bool{}
	for _, c := range comm {
		if c < 0 {
			t.Fatalf("negative community id in %v", comm)
		}
		if c > maxC {
			maxC = c
		}
		seen[c] = true
	}
	if len(seen) != maxC+1 {
		t.Fatalf("community ids not contiguous: %v", comm)
	}
}

// Property: Louvain always returns a valid contiguous partition and never
// decreases modularity below the single-community baseline (0).
func TestQuickLouvainValidPartition(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 2 + r.Intn(30)
		g := NewGraph(n)
		edges := r.Intn(60)
		for e := 0; e < edges; e++ {
			u, v := r.Intn(n), r.Intn(n)
			g.AddEdge(u, v, 1+r.Float64())
		}
		comm := Louvain(g)
		if len(comm) != n {
			return false
		}
		maxC := -1
		seen := map[int]bool{}
		for _, c := range comm {
			if c < 0 {
				return false
			}
			if c > maxC {
				maxC = c
			}
			seen[c] = true
		}
		if len(seen) != maxC+1 {
			return false
		}
		q, err := Modularity(g, comm)
		return err == nil && q >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLouvainDeterministic: identical graphs must produce identical
// partitions run after run — the bijections built on top feed training, so
// any map-iteration nondeterminism here silently changes experiments.
func TestLouvainDeterministic(t *testing.T) {
	build := func() *Graph {
		r := tensor.NewRNG(99)
		g := NewGraph(80)
		for e := 0; e < 400; e++ {
			u, v := r.Intn(80), r.Intn(80)
			g.AddEdge(u, v, 1+r.Float64())
		}
		return g
	}
	a := Louvain(build())
	for trial := 0; trial < 5; trial++ {
		b := Louvain(build())
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: Louvain nondeterministic at node %d (%d vs %d)", trial, i, a[i], b[i])
			}
		}
	}
}

// ErrAssignment reports a community assignment that does not match the
// graph it is evaluated against. Compare with errors.Is.
var ErrAssignment = errors.New("graphx: bad assignment")

// Modularity computes Newman's modularity Q of the node→community
// assignment comm:
//
//	Q = Σ_c [ in_c/(2m) − (tot_c/(2m))² ]
//
// where in_c is twice the intra-community undirected weight (plus twice the
// self loops) and tot_c the summed degrees.
// Every accumulation visits nodes, neighbors and communities in a fixed
// order (ascending node id via Neighbors, communities in first-appearance
// order), so identical inputs give bit-identical Q — map iteration never
// reaches a float sum.
func Modularity(g *Graph, comm []int) (float64, error) {
	if len(comm) != g.n {
		return 0, fmt.Errorf("%w: assignment length %d != %d nodes", ErrAssignment, len(comm), g.n)
	}
	if g.m == 0 {
		return 0, nil
	}
	in := map[int]float64{}
	tot := map[int]float64{}
	var order []int // communities in first-appearance order
	for u := 0; u < g.n; u++ {
		cu := comm[u]
		if _, seen := tot[cu]; !seen {
			order = append(order, cu)
		}
		tot[cu] += g.Degree(u)
		in[cu] += 2 * g.loops[u]
		g.Neighbors(u, func(v int, w float64) {
			if comm[v] == cu {
				in[cu] += w // each intra edge visited from both ends
			}
		})
	}
	m2 := 2 * g.m
	var q float64
	for _, c := range order {
		q += in[c]/m2 - (tot[c]/m2)*(tot[c]/m2)
	}
	return q, nil
}
