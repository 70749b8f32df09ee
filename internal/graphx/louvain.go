package graphx

import "slices"

// Louvain runs the modularity-based community detection of Blondel et al.
// (the algorithm the paper cites for index reordering): repeated local
// moving of nodes to the neighboring community with the best modularity
// gain, followed by graph aggregation, until modularity stops improving.
// It returns a community id per node, renumbered contiguously from 0 in
// order of first appearance.
func Louvain(g *Graph) []int {
	n := g.numNodes()
	// assignment maps original nodes to communities of the current level.
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = i
	}
	// Scratch for every level: levels only shrink.
	s := &mover{
		comm:   make([]int, n),
		tot:    make([]float64, n),
		weight: make([]float64, n),
	}
	remap := make([]int, n)
	work := g
	for {
		comm, improved := s.localMoving(work)
		if !improved {
			break
		}
		k := renumber(comm, remap[:len(comm)])
		// Project onto the original nodes.
		for i := range assignment {
			assignment[i] = comm[assignment[i]]
		}
		if k == work.numNodes() {
			break // no aggregation happened; fixed point
		}
		work = aggregate(work, comm, k)
	}
	renumber(assignment, remap)
	return assignment
}

// renumber relabels ids, each in [0, len(remap)), contiguously from 0 in
// order of first appearance, and returns the number of distinct ids.
func renumber(ids, remap []int) int {
	for i := range remap {
		remap[i] = -1
	}
	k := 0
	for i, c := range ids {
		if remap[c] < 0 {
			remap[c] = k
			k++
		}
		ids[i] = remap[c]
	}
	return k
}

// mover holds Louvain phase 1's per-node state, sized for the first level.
type mover struct {
	comm   []int     // community of each node
	tot    []float64 // Σ degrees per community
	weight []float64 // weight from the current node into each community; zero between nodes
	cands  []int     // communities whose weight entry is nonzero
}

// localMoving performs Louvain phase 1 on g: greedy node moves until no move
// improves modularity. Returns the assignment, which aliases the mover's
// scratch, and whether any move happened.
func (s *mover) localMoving(g *Graph) (comm []int, improved bool) {
	n := g.numNodes()
	comm, tot, weight := s.comm[:n], s.tot[:n], s.weight[:n]
	for u := 0; u < n; u++ {
		comm[u] = u
		tot[u] = g.deg[u]
	}
	m2 := 2 * g.m
	if m2 == 0 {
		return comm, false
	}

	for pass := 0; pass < 32; pass++ {
		moves := 0
		for u := 0; u < n; u++ {
			cu, du := comm[u], g.deg[u]
			// Weights from u into each neighboring community, summed in
			// ascending neighbour order. Edge weights are positive, so a
			// zero entry is a community not seen yet. Candidates are visited
			// in ascending community id so tie-breaking (and therefore the
			// final partition) is deterministic.
			s.cands = s.cands[:0]
			for p := g.start[u]; p < g.start[u+1]; p++ {
				c := comm[g.nbr[p]]
				if weight[c] == 0 {
					s.cands = append(s.cands, c)
				}
				weight[c] += g.wt[p]
			}
			slices.Sort(s.cands)
			// Remove u from its community.
			tot[cu] -= du
			// Gain of joining community c: k_{u,c}/m − tot_c·k_u/(2m²);
			// compare against rejoining cu.
			best, bestGain := cu, weight[cu]-tot[cu]*du/m2
			for _, c := range s.cands {
				if c == cu {
					continue
				}
				gain := weight[c] - tot[c]*du/m2
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				}
			}
			tot[best] += du
			if best != cu {
				comm[u] = best
				moves++
			}
			for _, c := range s.cands {
				weight[c] = 0
			}
		}
		if moves == 0 {
			break
		}
		improved = true
	}
	return comm, improved
}

// aggregate builds the level graph: one node per community, intra-community
// weight becomes a self loop, inter-community weights sum.
func aggregate(g *Graph, comm []int, numComm int) *Graph {
	cross := 0 // edges between communities: the ones the builder keeps
	for u := 0; u < g.numNodes(); u++ {
		for p := g.start[u]; p < g.start[u+1]; p++ {
			if v := int(g.nbr[p]); u < v && comm[u] != comm[v] {
				cross++
			}
		}
	}
	b := NewBuilder(numComm, cross)
	for u := 0; u < g.numNodes(); u++ {
		cu := comm[u]
		if w := g.loops[u]; w > 0 {
			b.AddEdge(cu, cu, w)
		}
		for p := g.start[u]; p < g.start[u+1]; p++ {
			if v := int(g.nbr[p]); u < v { // visit each undirected edge once
				b.AddEdge(cu, comm[v], g.wt[p])
			}
		}
	}
	return b.Graph()
}
