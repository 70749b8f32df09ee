package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// ttCore measures the compute-core hot paths directly, one row per path, so
// kernel-level changes show up as per-row deltas between two BENCH_ttcore
// artifacts (elrec-bench -compare). Unlike the figure experiments it is not
// a paper artifact: it exists to record before/after trajectories of the
// blocked GEMM kernels and the zero-allocation TT step.
func ttCore(sc Scale) *Result {
	rows := scaledRows(5_000_000, sc, 20_000)
	r := &Result{
		ID:     "ttcore",
		Title:  "compute-core hot paths (µs/op)",
		Header: []string{"path", "us/op", "ops/s", "GMAC/s"},
	}

	// macs is the path's multiply-add count per op, 0 for the composite
	// paths that have no single figure.
	addRowMACs := func(name string, perOp time.Duration, macs float64) {
		us := float64(perOp.Nanoseconds()) / 1e3
		opsPerSec, gmacs := 0.0, "-"
		if perOp > 0 {
			opsPerSec = float64(time.Second) / float64(perOp)
			if macs > 0 {
				gmacs = fmt.Sprintf("%.1f", macs/float64(perOp.Nanoseconds()))
			}
		}
		r.addRow(name, fmt.Sprintf("%.2f", us), fmt.Sprintf("%.0f", opsPerSec), gmacs)
	}
	addRow := func(name string, perOp time.Duration) { addRowMACs(name, perOp, 0) }
	// addPassRows times a layer's whole-batch Forward and then its Backward,
	// reps calls a sample, into the rows nameFmt names with "fwd" and "bwd".
	addPassRows := func(nameFmt string, reps int, fwd, bwd func()) {
		for _, pass := range []struct {
			name string
			run  func()
		}{{"fwd", fwd}, {"bwd", bwd}} {
			perOp := minOf(5, func() time.Duration {
				return timeIt(func() {
					for i := 0; i < reps; i++ {
						pass.run()
					}
				})
			}) / time.Duration(reps)
			addRow(fmt.Sprintf(nameFmt, pass.name), perOp)
		}
	}

	// The kernel shapes the benchmark's train_tt step is made of, one serial
	// raw-buffer call each: the TT contractions at dim 64 = 4·4·4 and rank
	// 64 (forward NN, backward TN and NT), and the default model's widest
	// layer, the top tower's 415→64, at batch 128 (forward NT, dW TN, dx NN);
	// then the stacked shapes: one sample's Z·Zᵀ (the interaction's grouped
	// scoring forward) and S·Z (its backward before lane blocks) over 27
	// features of width 64, and the TT products of a two-prefix G₂ group
	// and of a seven-prefix one (the forward fill, the backward dG₂ and c1 of
	// one G₂ slice).
	type gemm = func(m, k, n int, a, b, c []float32)
	gtn := func(m, k, n int, a, b, c []float32) { tensor.GemmTransAAddInto(m, k, n, 1, a, b, c) }
	var gnn, gnt gemm = tensor.GemmInto, tensor.GemmTransBAddInto
	for _, g := range []struct {
		kind    string
		kernel  gemm
		m, k, n int
	}{
		{"NN", gnn, 4, 64, 256}, {"NN", gnn, 16, 64, 4},
		{"TN", gtn, 64, 16, 4}, {"TN", gtn, 64, 4, 256},
		{"NT", gnt, 16, 4, 64}, {"NT", gnt, 4, 256, 64},
		{"NT", gnt, 128, 415, 64}, {"TN", gtn, 64, 128, 415}, {"NN", gnn, 128, 64, 415},
		{"NT", gnt, 27, 64, 27}, {"NN", gnn, 27, 27, 64}, {"NN", gnn, 8, 64, 256}, {"TN", gtn, 64, 8, 256},
		{"NN", gnn, 28, 64, 256}, {"TN", gtn, 64, 28, 256}, {"NT", gnt, 28, 256, 64},
	} {
		a, b, c := make([]float32, g.m*g.k), make([]float32, g.k*g.n), make([]float32, g.m*g.n)
		rng := tensor.NewRNG(13)
		rng.FillUniform(a, 1)
		rng.FillUniform(b, 1)
		work := g.m * g.k * g.n
		reps := 1 + 20_000_000/work
		perOp := minOf(5, func() time.Duration {
			return timeIt(func() {
				for i := 0; i < reps; i++ {
					g.kernel(g.m, g.k, g.n, a, b, c)
				}
			})
		}) / time.Duration(reps)
		addRowMACs(fmt.Sprintf("kernel-%s-%dx%dx%d", g.kind, g.m, g.k, g.n), perOp, float64(work))
	}

	// One phase-2 visit of a G₂ slice as training runs it, at one and at two
	// prefixes (most of train_tt's visits): c1 = [dP₁₂]·G₂[i₂]ᵀ, then the dG₂
	// product [G₁]ᵀ·[dP₁₂] and its SGD update of G₂[i₂]. Successive visits
	// stride through 400 distinct 64 KB slices (25.6 MB, many times a core's
	// L2), so each one, as in training, finds its slice beyond L2, which the
	// hot-operand kernel rows above never do. slice-stream-cold is AddTo
	// over the same cold slices: the memory traffic of one visit alone (read
	// and write 64 KB), so what a visit costs beyond it is its products'.
	{
		const r, cols, n1, slices, stride, lr = 64, 256, 4, 400, 37, 0.05
		g2 := make([]float32, slices*r*cols)
		rng := tensor.NewRNG(14)
		rng.FillUniform(g2, 1)
		for _, k := range []int{1, 2} {
			rows := k * n1
			g1, dP, c1 := make([]float32, rows*r), make([]float32, rows*cols), make([]float32, rows*r)
			rng.FillUniform(g1, 1)
			rng.FillUniform(dP, 1e-3)
			const reps = 4 * slices
			next := 0
			perOp := minOf(5, func() time.Duration {
				return timeIt(func() {
					for i := 0; i < reps; i++ {
						slice := g2[next*r*cols : (next+1)*r*cols]
						next = (next + stride) % slices
						tensor.GemmTransBInto(rows, cols, r, dP, slice, c1)
						tensor.GemmTransAAddInto(r, rows, cols, -lr, g1, dP, slice)
					}
				})
			}) / reps
			addRowMACs(fmt.Sprintf("slice-visit-%dprefix", k), perOp, float64(2*rows*r*cols))
		}
		hot := make([]float32, r*cols)
		rng.FillUniform(hot, 1e-3)
		next := 0
		addRow("slice-stream-cold", minOf(5, func() time.Duration {
			return timeIt(func() {
				for i := 0; i < 4*slices; i++ {
					tensor.AddTo(g2[next*r*cols:(next+1)*r*cols], hot)
					next = (next + stride) % slices
				}
			})
		})/(4*slices))
	}

	// Raw GEMM kernels at an MLP-tower-like and a square shape.
	gemmReps := 200
	timeGemm := func(m, k, n int) time.Duration {
		a, b := tensor.New(m, k), tensor.New(k, n)
		dst := tensor.New(m, n)
		rng := tensor.NewRNG(11)
		rng.FillUniform(a.Data, 1)
		rng.FillUniform(b.Data, 1)
		return minOf(3, func() time.Duration {
			return timeIt(func() {
				for i := 0; i < gemmReps; i++ {
					tensor.MatMul(dst, a, b)
				}
			})
		}) / time.Duration(gemmReps)
	}
	addRow("gemm-128x128x128", timeGemm(128, 128, 128))
	addRow(fmt.Sprintf("gemm-%dx64x64", sc.Batch), timeGemm(sc.Batch, 64, 64))

	timeGemmTB := func(m, k, n int) time.Duration {
		a, b := tensor.New(m, k), tensor.New(n, k)
		dst := tensor.New(m, n)
		rng := tensor.NewRNG(12)
		rng.FillUniform(a.Data, 1)
		rng.FillUniform(b.Data, 1)
		return minOf(3, func() time.Duration {
			return timeIt(func() {
				for i := 0; i < gemmReps; i++ {
					tensor.MatMulTransB(dst, a, b)
				}
			})
		}) / time.Duration(gemmReps)
	}
	addRow(fmt.Sprintf("gemmTB-%dx64x64", sc.Batch), timeGemmTB(sc.Batch, 64, 64))

	// The interaction layer at the benchmark's two training shapes (26 tables
	// and the dense vector; train_host is dim 32 batch 256, train_tt dim 64
	// batch 128), one whole-batch Forward and Backward each.
	for _, s := range []struct{ dim, batch int }{{32, 256}, {64, 128}} {
		const tables = 26
		it := nn.NewInteraction(s.dim, tables)
		dense, embs := gradFor(s.batch, s.dim, 14), make([]*tensor.Matrix, tables)
		for t := range embs {
			embs[t] = gradFor(s.batch, s.dim, 15+uint64(t))
		}
		dy := gradFor(s.batch, it.OutputDim(), 7)
		addPassRows(fmt.Sprintf("interaction-%%s-%dx%d-b%d", tables+1, s.dim, s.batch), 20,
			func() { it.Forward(dense, embs) }, func() { it.Backward(dy) })
	}

	// The dense towers at train_host's shape (dim 32, batch 256): a whole
	// Forward and Backward of the bottom and the top MLP, products and
	// epilogues together.
	for _, tw := range []struct {
		name  string
		sizes []int
	}{{"bottom", []int{13, 64, 32, 32}}, {"top", []int{383, 64, 32, 1}}} {
		const batch = 256
		m := nn.NewMLP(tw.sizes, tensor.NewRNG(16))
		x, dy := gradFor(batch, tw.sizes[0], 17), gradFor(batch, tw.sizes[len(tw.sizes)-1], 18)
		addPassRows(fmt.Sprintf("mlp-%s-%%s-b%d", tw.name, batch), 50,
			func() { m.Forward(x) }, func() { m.Backward(dy) })
	}

	// One generated batch of the benchmark's dataset (26 tables, 13 dense
	// features, labels) at its train_host scale and batch.
	{
		const batch, reps = 256, 20
		d, err := data.New(data.TerabyteSpec(0.01))
		if err != nil {
			panic(err)
		}
		iter := 0
		addRow(fmt.Sprintf("data-batch-terabyte-b%d", batch), minOf(5, func() time.Duration {
			return timeIt(func() {
				for i := 0; i < reps; i++ {
					d.Batch(iter, batch)
					iter++
				}
			})
		})/reps)
	}

	// Table initialisation, one call per op: FillUniform over 1 M floats
	// (what fills every host and dense table and the MLP weights) and
	// FillNormal over 64 K (BenchmarkFillNormal's smaller size; it draws every
	// TT core, but train_tt's G₂ cores hold 0.8–1.2 M floats each). tt-init-r64
	// builds train_tt's five TT tables (Terabyte(0.01) rows at or above the
	// default threshold, dim = rank = 64, 5.07 M core floats) as a run does,
	// through dlrm.TableSpec.Table: most of its time is FillNormal.
	{
		x := make([]float32, 1<<20)
		rng := tensor.NewRNG(19)
		addRow("fill-uniform-1M", minOf(5, func() time.Duration {
			return timeIt(func() { rng.FillUniform(x, 0.01) })
		}))
		addRow("fill-normal-64K", minOf(5, func() time.Duration {
			return timeIt(func() { rng.FillNormal(x[:1<<16], 0.02) })
		}))
		cfg := core.DefaultConfig(data.TerabyteSpec(0.01))
		spec := dlrm.TableSpec{Dim: 64, Rank: 64, TTThreshold: cfg.TTThreshold, Opts: tt.EffOptions(), Seed: 20}
		addRow("tt-init-r64", minOf(5, func() time.Duration {
			return timeIt(func() {
				for i, rows := range cfg.Data.TableRows {
					if spec.Compressed(rows) {
						if _, err := spec.Table(i, rows); err != nil {
							panic(err)
						}
					}
				}
			})
		}))
	}

	// TT table paths over the standard single-table workload.
	w := newTableWorkload(rows, sc.Steps, sc.Batch, 1004)
	dOut := gradFor(sc.Batch, sc.EmbDim, 7)
	perBatch := func(total time.Duration) time.Duration {
		return total / time.Duration(sc.Steps) // every workload here has sc.Steps batches
	}

	naive := w.newTT(sc.EmbDim, sc.Rank, tt.NaiveOptions())
	addRow("tt-forward-naive", perBatch(measureLookup(naive, w.raw, w.offsets, sc.WarmSteps)))

	eff := w.newTT(sc.EmbDim, sc.Rank, tt.EffOptions())
	addRow("tt-forward-eff", perBatch(measureLookup(eff, w.raw, w.offsets, sc.WarmSteps)))
	addRow("tt-backward-eff", perBatch(measureBackward(eff, w.raw, w.offsets, dOut, sc.WarmSteps)))

	// The paper's regime (dim = rank = 64, batch 128, reordered indices; the
	// repo benchmark's train_tt workload), where the two rank-sized
	// contractions of the backward are ~94% of the chain and run once per
	// unique prefix. Reordering is what makes work items share prefixes:
	// ~1.36 per prefix here against ~1.04 on the raw indices.
	const r64, r64Batch = 64, 128
	w64 := newTableWorkload(rows, sc.Steps, r64Batch, 1004)
	eff64 := w64.newTT(r64, r64, tt.EffOptions())
	addRow("tt-lookup-eff-r64", perBatch(measureLookup(eff64, w64.reordered, w64.offsets, sc.WarmSteps)))
	addRow("tt-backward-eff-r64", perBatch(measureBackward(eff64, w64.reordered, w64.offsets, gradFor(r64Batch, r64, 7), sc.WarmSteps)))

	// One-table DLRM training step: the end-to-end steps/sec consumers see.
	stepTime := func() time.Duration {
		spec := singleTableSpec(rows, 1005)
		d, err := data.New(spec)
		if err != nil {
			panic(err)
		}
		tables, _, err := dlrm.BuildTables([]int{rows}, dlrm.TableSpec{
			Dim: sc.EmbDim, Rank: sc.Rank, TTThreshold: 0, Opts: tt.EffOptions(), Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		model, err := dlrm.NewModel(modelConfig(spec, sc), tables)
		if err != nil {
			panic(err)
		}
		for i := 0; i < sc.WarmSteps; i++ {
			model.TrainStep(d.Batch(i, sc.Batch))
		}
		return minOf(3, func() time.Duration {
			return timeIt(func() {
				for it := 0; it < sc.Steps; it++ {
					model.TrainStep(d.Batch(sc.WarmSteps+it, sc.Batch))
				}
			})
		}) / time.Duration(sc.Steps)
	}
	addRow("dlrm-train-step", stepTime())

	r.addNote("table %d rows, dim %d, rank %d, batch %d (-r64 rows: dim %d, rank %d, batch %d, reordered indices); ops/s is per-path calls per second", rows, sc.EmbDim, sc.Rank, sc.Batch, r64, r64, r64Batch)
	r.addNote("kernel-* rows: one serial call, m×k×n with the kind's operand layout, %s kernels", tensor.KernelName())
	return r
}
