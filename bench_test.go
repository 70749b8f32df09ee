package elrec

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/graphx"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// ---------------------------------------------------------------------------
// Experiment benchmarks: one per table/figure of the paper. Each regenerates
// the experiment at a trimmed quick scale (a full sweep at default scale is
// cmd/elrec-bench's job); the benchmark time is the cost of reproducing that
// artifact end to end.
// ---------------------------------------------------------------------------

// benchScale returns a trimmed scale so the full -bench=. sweep stays fast.
func benchScale() bench.Scale {
	sc := bench.Quick()
	sc.Steps = 4
	sc.WarmSteps = 1
	sc.TrainSteps = 60
	return sc
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(id, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2DatasetStats(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkTable3Footprint(b *testing.B)      { runExperiment(b, "table3") }
func BenchmarkTable4Accuracy(b *testing.B)       { runExperiment(b, "table4") }
func BenchmarkFig4aAccessSkew(b *testing.B)      { runExperiment(b, "fig4a") }
func BenchmarkFig4bUniquePerBatch(b *testing.B)  { runExperiment(b, "fig4b") }
func BenchmarkFig11EndToEndV100(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig11EndToEndT4(b *testing.B)      { runExperiment(b, "fig11-t4") }
func BenchmarkFig12MultiGPU(b *testing.B)        { runExperiment(b, "fig12") }
func BenchmarkFig13LargeTable(b *testing.B)      { runExperiment(b, "fig13") }
func BenchmarkFig14Breakdown(b *testing.B)       { runExperiment(b, "fig14") }
func BenchmarkFig15Convergence(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16Pipeline(b *testing.B)        { runExperiment(b, "fig16") }
func BenchmarkFig17LookupLatency(b *testing.B)   { runExperiment(b, "fig17") }
func BenchmarkFig18BackwardLatency(b *testing.B) { runExperiment(b, "fig18") }

// ---------------------------------------------------------------------------
// Primitive benchmarks: the kernels behind the figures, at a fixed
// representative configuration (50k-row table, dim 16, rank 8, batch 1024).
// The Eff-TT variants should beat their naive counterparts; Figure 17/18
// sweep these across batch sizes.
// ---------------------------------------------------------------------------

const (
	benchRows  = 50_000
	benchDim   = 16
	benchRank  = 8
	benchBatch = 1024
)

func benchTable(b *testing.B, opts tt.Options) (*tt.Table, []int, []int) {
	b.Helper()
	shape, err := tt.NewShape(benchRows, benchDim, benchRank)
	if err != nil {
		b.Fatal(err)
	}
	tbl := tt.NewTable(shape, tensor.NewRNG(1), 0.05)
	tbl.Opts = opts
	d, err := data.New(data.Spec{
		Name: "bench", NumDense: 1, TableRows: []int{benchRows},
		ZipfS: 1.15, ZipfV: 2, GroupSize: 64, ActiveGroups: 8, Locality: 0.8,
		Samples: 1 << 30, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	indices := d.BatchIndices(0, benchBatch, 0)
	offsets := make([]int, benchBatch)
	for i := range offsets {
		offsets[i] = i
	}
	return tbl, indices, offsets
}

func BenchmarkEffTTLookup(b *testing.B) {
	tbl, indices, offsets := benchTable(b, tt.EffOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(indices, offsets)
	}
}

func BenchmarkNaiveTTLookup(b *testing.B) {
	tbl, indices, offsets := benchTable(b, tt.NaiveOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(indices, offsets)
	}
}

func BenchmarkEffTTBackward(b *testing.B) {
	tbl, indices, offsets := benchTable(b, tt.EffOptions())
	dOut := tensor.New(benchBatch, benchDim)
	tensor.NewRNG(2).FillUniform(dOut.Data, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(indices, offsets)
		tbl.Update(indices, offsets, dOut, 1e-4)
	}
}

func BenchmarkNaiveTTBackward(b *testing.B) {
	tbl, indices, offsets := benchTable(b, tt.NaiveOptions())
	dOut := tensor.New(benchBatch, benchDim)
	tensor.NewRNG(2).FillUniform(dOut.Data, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(indices, offsets)
		tbl.Update(indices, offsets, dOut, 1e-4)
	}
}

func BenchmarkEmbeddingBagLookup(b *testing.B) {
	bag := embedding.NewBag(benchRows, benchDim, tensor.NewRNG(1))
	_, indices, offsets := benchTable(b, tt.EffOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.Lookup(indices, offsets)
	}
}

func BenchmarkLouvain(b *testing.B) {
	r := tensor.NewRNG(3)
	gb := graphx.NewBuilder(2000, 20_000)
	for e := 0; e < 20_000; e++ {
		gb.AddEdge(r.Intn(2000), r.Intn(2000), 1)
	}
	g := gb.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphx.Louvain(g)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := tensor.NewRNG(4)
	a := tensor.New(128, 128)
	c := tensor.New(128, 128)
	out := tensor.New(128, 128)
	r.FillUniform(a.Data, 1)
	r.FillUniform(c.Data, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(out, a, c)
	}
}
