package reorder

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// refBuild is the Build that sorted every row and ran Louvain over every
// graph rank on a map-based graph, kept with that graph and its Louvain as
// the oracle of TestBuildMatchesReference and FuzzBuildMatchesReference.
// Its code is the old Build's, FrequencyOrder's, BuildIndexGraph's and
// graphx's, renamed (refBuild, refGraph, refLouvain, …); it trusts its
// config, so callers pass only configs Build accepts. graphx keeps the
// same graph as Louvain's own oracle.
func refBuild(counts []int64, batches [][]int, cfg Config) (*Bijection, error) {
	if cfg.MaxGraphNodes == 0 {
		cfg.MaxGraphNodes = 1 << 20
	}
	if cfg.MaxPairsPerBatch == 0 {
		cfg.MaxPairsPerBatch = 1 << 16
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
	rank := refFrequencyOrder(counts)
	hotCount := int(cfg.HotRatio * float64(n))
	graphNodes := n - hotCount
	if graphNodes > cfg.MaxGraphNodes {
		graphNodes = cfg.MaxGraphNodes
	}
	newOfRank := make([]int32, n)
	for r := 0; r < hotCount; r++ {
		newOfRank[r] = int32(r)
	}
	for r := hotCount + graphNodes; r < n; r++ {
		newOfRank[r] = int32(r)
	}
	if graphNodes > 0 {
		g := refBuildIndexGraph(rank, batches, hotCount, graphNodes, cfg.MaxPairsPerBatch)
		comm := refLouvain(g)
		weight := make(map[int]float64)
		for node, c := range comm {
			weight[c] += g.deg[node]
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
	bij := &Bijection{Forward: make([]int32, n)}
	for raw := 0; raw < n; raw++ {
		bij.Forward[raw] = newOfRank[rank[raw]]
	}
	return bij, nil
}

func refFrequencyOrder(counts []int64) []int {
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

func refBuildIndexGraph(rank []int, batches [][]int, hotCount, graphNodes, maxPairs int) *refGraph {
	g := newRefGraph(graphNodes)
	var nodes []int
	for _, batch := range batches {
		nodes = nodes[:0]
		seen := make(map[int]struct{}, len(batch))
		for _, idx := range batch {
			r := rank[idx]
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
		n := len(nodes)
		total := n * (n - 1) / 2
		if total == 0 {
			continue
		}
		stride := 1
		if total > maxPairs {
			stride = (total + maxPairs - 1) / maxPairs
		}
		pair := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pair%stride == 0 {
					g.addEdge(nodes[i], nodes[j], 1)
				}
				pair++
			}
		}
	}
	return g
}

type refGraph struct {
	n     int
	adj   []map[int]float64
	loops []float64
	deg   []float64
	m     float64
}

func newRefGraph(n int) *refGraph {
	return &refGraph{n: n, adj: make([]map[int]float64, n), loops: make([]float64, n), deg: make([]float64, n)}
}

func (g *refGraph) addEdge(u, v int, w float64) {
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
			sort.Ints(cands)
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
				out.addEdge(cu, comm[v], w)
			}
		})
	}
	return out
}

// requireSameBijection fails unless Build and refBuild agree on the input:
// both refuse it, or both return the same Forward and Inverse.
func requireSameBijection(t *testing.T, counts []int64, batches [][]int, cfg Config) {
	t.Helper()
	got, err := Build(counts, batches, cfg)
	want, werr := refBuild(counts, batches, cfg)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Build(%v, %v, %+v) error %v, reference %v", counts, batches, cfg, err, werr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(got.Forward, want.Forward) {
		t.Fatalf("Build(%v, %v, %+v):\nForward %v\nreference\nForward %v", counts, batches, cfg, got.Forward, want.Forward)
	}
}

// TestBuildMatchesReference holds Build to refBuild on generated inputs:
// zero and negative counts, counts consistent and inconsistent with the
// batches, clustered and scattered batches, every cap at 0 (the default),
// 1 and small values, and HotRatio from 0 to 1.
func TestBuildMatchesReference(t *testing.T) {
	r := tensor.NewRNG(33)
	ratios := []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 1}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(200)
		var batches [][]int
		clusters := 1 + r.Intn(8)
		for b := r.Intn(10); b > 0; b-- {
			batch := make([]int, r.Intn(40))
			base := r.Intn(clusters)
			for i := range batch {
				if r.Float64() < 0.6 { // a row of the batch's cluster
					batch[i] = (base + clusters*r.Intn(n)) % n
				} else {
					batch[i] = r.Intn(n)
				}
			}
			batches = append(batches, batch)
		}
		counts := make([]int64, n)
		switch r.Intn(3) {
		case 0: // what the batches touched
			for _, batch := range batches {
				for _, idx := range batch {
					counts[idx]++
				}
			}
		case 1: // independent of the batches, with zeros and negatives
			for i := range counts {
				counts[i] = int64(r.Intn(7)) - 2
			}
		case 2: // what the batches touched, plus noise on a few rows
			for _, batch := range batches {
				for _, idx := range batch {
					counts[idx]++
				}
			}
			for k := r.Intn(5); k > 0; k-- {
				counts[r.Intn(n)] += int64(r.Intn(9)) - 4
			}
		}
		caps := []int{0, 1, 2, 1 + r.Intn(n), n}
		cfg := Config{
			HotRatio:         ratios[r.Intn(len(ratios))],
			MaxGraphNodes:    caps[r.Intn(len(caps))],
			MaxPairsPerBatch: caps[r.Intn(len(caps))],
		}
		if trial%7 == 0 {
			cfg.HotRatio = r.Float64()
		}
		requireSameBijection(t, counts, batches, cfg)
	}
}

// fuzzBytes feeds FuzzBuildMatchesReference's decoder; an exhausted input
// reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// FuzzBuildMatchesReference holds Build to refBuild on one decoded input,
// and requires Build to refuse exactly the configs refBuild cannot take.
//
// Encoding: n = 1 + byte 0 rows; byte 1 picks HotRatio from fuzzRatios
// (NaN, −0.5 and 2 are invalid); bytes 2 and 3 are MaxGraphNodes and
// MaxPairsPerBatch as int8 (negative is invalid); byte 4's low 7 bits say
// how many count bytes follow (count[i] = int8), and its high bit adds the
// batches' occurrences to the counts. The rest are batch ids (b % n), with
// 0xff starting a new batch. Inputs over 1024 bytes are skipped.
func FuzzBuildMatchesReference(f *testing.F) {
	fuzzRatios := []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1, math.NaN(), -0.5, 2}
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1024 {
			return
		}
		in := fuzzBytes(input)
		n := 1 + int(in.next())
		cfg := Config{
			HotRatio:         fuzzRatios[int(in.next())%len(fuzzRatios)],
			MaxGraphNodes:    int(int8(in.next())),
			MaxPairsPerBatch: int(int8(in.next())),
		}
		mode := in.next()
		counts := make([]int64, n)
		for i := 0; i < int(mode&0x7f); i++ {
			counts[i%n] = int64(int8(in.next()))
		}
		batches := [][]int{nil}
		for len(in) > 0 {
			if b := in.next(); b == 0xff {
				batches = append(batches, nil)
			} else {
				batches[len(batches)-1] = append(batches[len(batches)-1], int(b)%n)
			}
		}
		if mode&0x80 != 0 {
			for _, batch := range batches {
				for _, idx := range batch {
					counts[idx]++
				}
			}
		}
		invalid := !(cfg.HotRatio >= 0 && cfg.HotRatio <= 1) || cfg.MaxGraphNodes < 0 || cfg.MaxPairsPerBatch < 0
		if invalid {
			if _, err := Build(counts, batches, cfg); err == nil {
				t.Fatalf("Build accepted invalid config %+v", cfg)
			}
			return
		}
		requireSameBijection(t, counts, batches, cfg)
	})
}

// allocInput is a 1<<22-row table profiled by 16 batches of 512 ids drawn
// in 32-id clusters (about 8 K touched rows), with counts from the batches.
func allocInput() ([]int64, [][]int) {
	const rows = 1 << 22
	r := tensor.NewRNG(5)
	counts := make([]int64, rows)
	batches := make([][]int, 16)
	for b := range batches {
		batches[b] = make([]int, 512)
		for i := range batches[b] {
			if i%32 == 0 || r.Float64() < 0.05 {
				batches[b][i] = r.Intn(rows)
			} else {
				batches[b][i] = batches[b][i-1] + 1 + r.Intn(4)
				if batches[b][i] >= rows {
					batches[b][i] = r.Intn(rows)
				}
			}
			counts[batches[b][i]]++
		}
	}
	return counts, batches
}

// TestBuildAllocationFollowsTouchedRows bounds what Build allocates per
// table row on a 1<<22-row table with about 8 K touched rows: the
// bijection's two int32 arrays (8 B/row) are the only table-sized state,
// with an empty index graph (HotRatio 5 %: every touched row is hot) and
// with a non-empty one (0.05 %).
func TestBuildAllocationFollowsTouchedRows(t *testing.T) {
	counts, batches := allocInput()
	for _, hot := range []float64{0.05, 0.0005} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bij, err := Build(counts, batches, Config{HotRatio: hot})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(counts))
		t.Logf("HotRatio %v: %.1f B/row", hot, perRow)
		if perRow > 24 {
			t.Errorf("HotRatio %v: Build allocated %.1f B/row, want ≤ 24", hot, perRow)
		}
		runtime.KeepAlive(bij)
	}
}

func benchmarkBuild(b *testing.B, hot float64) {
	counts, batches := allocInput()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(counts, batches, Config{HotRatio: hot}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(len(counts)), "B/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "mallocs/op")
}

// BenchmarkBuildEmptyGraph is allocInput at HotRatio 5 %: every touched row
// is hot, so the index graph is empty (train_tt's case).
func BenchmarkBuildEmptyGraph(b *testing.B) { benchmarkBuild(b, 0.05) }

// BenchmarkBuildGraph is allocInput at HotRatio 0.05 %: about 2 K hot rows
// and an index graph over the other touched ranks.
func BenchmarkBuildGraph(b *testing.B) { benchmarkBuild(b, 0.0005) }
