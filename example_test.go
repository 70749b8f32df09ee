package elrec_test

import (
	"fmt"
	"log"
	"math"

	elrec "repro"
)

// The Eff-TT embedding bag is a drop-in replacement for an uncompressed
// EmbeddingBag: the same indices/offsets bags (the torch.nn.EmbeddingBag
// encoding), the same sum-pooling Lookup and combined backward+SGD Update, at
// a fraction of the memory.
func ExampleNewEffTTEmbeddingBag() {
	const rows, dim, rank = 100_000, 32, 16
	dense := elrec.NewEmbeddingBag(rows, dim, 1)
	eff, err := elrec.NewEffTTEmbeddingBag(rows, dim, rank, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dense: %d bytes, Eff-TT: %d bytes (%dx smaller)\n",
		dense.FootprintBytes(), eff.FootprintBytes(), dense.FootprintBytes()/eff.FootprintBytes())

	// Three samples: sample 0 is a two-index bag, samples 1 and 2 one each.
	indices := []int{12, rows - 1, 42, 42}
	offsets := []int{0, 2, 3}
	for i, table := range []elrec.EmbeddingBag{dense, eff} {
		out := table.Lookup(indices, offsets).Clone()
		grad := out.Clone()
		for j := range grad.Data {
			grad.Data[j] = 1 // dLoss/dOut all ones: the loss is the pooled sum
		}
		table.Update(indices, offsets, grad, 0.01)
		var drop float64
		for j, v := range table.Lookup(indices, offsets).Data {
			drop += float64(out.Data[j] - v)
		}
		fmt.Printf("%s: %dx%d pooled, one SGD step lowered the loss: %v\n",
			[]string{"dense", "Eff-TT"}[i], out.Rows, out.Cols, drop > 0)
	}
	// Output:
	// dense: 12800000 bytes, Eff-TT: 210432 bytes (60x smaller)
	// dense: 3x32 pooled, one SGD step lowered the loss: true
	// Eff-TT: 3x32 pooled, one SGD step lowered the loss: true
}

// Locality-based index reordering (§IV): a bijection over one table's row
// ids from access frequencies (global information) and Louvain communities
// of the co-occurrence graph (local information). Rows that appear together
// end up sharing TT prefixes, which the Eff-TT reuse buffer computes once.
func ExampleBuildReordering() {
	spec := elrec.DatasetSpec{
		Name: "reorder-demo", NumDense: 1, TableRows: []int{8192},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 32, ActiveGroups: 6, Locality: 0.85,
		Samples: 1 << 20, Seed: 7,
	}
	d, err := elrec.NewDataset(spec)
	if err != nil {
		log.Fatal(err)
	}
	const profile, held, batch = 20, 10, 256
	counts := make([]int64, spec.TableRows[0])
	var batches [][]int
	for it := 0; it < profile; it++ {
		col := d.Batch(it, batch).Sparse[0]
		batches = append(batches, col)
		for _, idx := range col {
			counts[idx]++
		}
	}
	bij, err := elrec.BuildReordering(counts, batches, elrec.DefaultReorderConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bijection over %d rows, valid: %v\n", bij.Len(), bij.Validate() == nil)

	// Unique TT prefixes (index / m3) per held-out batch, before and after.
	const m3 = 32
	prefixes := func(indices []int) int {
		seen := map[int]bool{}
		for _, idx := range indices {
			seen[idx/m3] = true
		}
		return len(seen)
	}
	var before, after int
	for it := profile; it < profile+held; it++ {
		raw := d.Batch(it, batch).Sparse[0]
		before += prefixes(raw)
		after += prefixes(bij.Apply(raw))
	}
	fmt.Printf("unique TT prefixes over %d held-out batches: %d -> %d\n", held, before, after)
	// Output:
	// bijection over 8192 rows, valid: true
	// unique TT prefixes over 10 held-out batches: 1010 -> 703
}

// Ranking candidate items for one user context with a trained, compressed
// model: the serving side of compression, where the whole ranking model is
// small enough to replicate.
func ExampleNewRanker() {
	spec := elrec.Avazu(0.001)
	cfg := elrec.DefaultSystemConfig(spec)
	cfg.Model.EmbDim = 8
	cfg.Rank = 4
	sys, err := elrec.BuildSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.Train(0, 60, 64)

	// The largest table is the item catalogue.
	item, itemRows := 0, 0
	for t, rows := range spec.TableRows {
		if rows > itemRows {
			item, itemRows = t, rows
		}
	}
	ranker, err := elrec.NewRanker(sys.Model(), item, 64)
	if err != nil {
		log.Fatal(err)
	}
	b := sys.Source().Batch(500, 1)
	ctx := elrec.RankContext{Dense: b.Dense.Row(0)}
	for t := range b.Sparse {
		ctx.Sparse = append(ctx.Sparse, b.Sparse[t][0])
	}
	candidates := make([]int, 100)
	for i := range candidates {
		candidates[i] = i * 37 % itemRows
	}
	top, err := ranker.TopK(ctx, candidates, 5)
	if err != nil {
		log.Fatal(err)
	}
	scores, err := ranker.Score(ctx, candidates)
	if err != nil {
		log.Fatal(err)
	}
	ranked := true
	for i, s := range top {
		ranked = ranked && (i == 0 || s.Score <= top[i-1].Score)
		for j, c := range candidates {
			if c == s.Item {
				ranked = ranked && scores[j] == s.Score
			}
		}
	}
	fmt.Printf("top %d of %d candidates from item table %d (%d rows)\n", len(top), len(candidates), item, itemRows)
	fmt.Printf("ranked by Score, best first: %v; best ctr %.3f\n", ranked, top[0].Score)
	// Output:
	// top 5 of 100 candidates from item table 10 (6729 rows)
	// ranked by Score, best first: true; best ctr 0.276
}

// A full EL-Rec system from one config — TT compression of the large
// tables, locality-based reordering, HBM-aware placement — against the
// uncompressed DLRM baseline on the same batches (Table IV in miniature).
func ExampleBuildSystem() {
	spec := elrec.Terabyte(0.0005)
	fmt.Printf("%d categorical tables\n", spec.NumTables())
	const steps, batch = 60, 128
	train := func(compress bool) (bytes int64, auc float64) {
		cfg := elrec.DefaultSystemConfig(spec)
		cfg.Model.EmbDim = 16
		cfg.Rank = 8
		cfg.TTThreshold = 1000 // "large" at this scale
		cfg.ProfileBatches, cfg.ProfileBatchSize = 4, 256
		if !compress {
			cfg.TTThreshold = -1 // the uncompressed DLRM baseline
			cfg.Reorder = false
		}
		sys, err := elrec.BuildSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sys.Train(0, steps, batch)
		_, auc = sys.Evaluate(steps+1, 4, batch)
		return sys.DeviceBytes + sys.HostBytes, auc
	}
	dlrmBytes, dlrmAUC := train(false)
	elrecBytes, elrecAUC := train(true)
	fmt.Printf("embeddings: DLRM %d bytes, EL-Rec %d bytes (%dx smaller)\n",
		dlrmBytes, elrecBytes, dlrmBytes/elrecBytes)
	fmt.Printf("EL-Rec AUC within 0.02 of DLRM: %v\n", math.Abs(elrecAUC-dlrmAUC) <= 0.02)
	// Output:
	// 26 categorical tables
	// embeddings: DLRM 3674880 bytes, EL-Rec 121024 bytes (30x smaller)
	// EL-Rec AUC within 0.02 of DLRM: true
}

// Tables that do not fit the device live in host memory behind the parameter
// server (§V): pre-fetch and gradient queues overlap the host traffic with
// training, and the embedding cache patches rows a queued gradient has made
// stale. Pipelining changes the schedule, not the math.
func ExampleBuildSystem_pipelined() {
	spec := elrec.Kaggle(0.001)
	const steps, batch = 40, 64
	build := func(queueDepth int) *elrec.System {
		cfg := elrec.DefaultSystemConfig(spec)
		cfg.Model.EmbDim = 8
		cfg.Rank = 4
		cfg.Reorder = false
		cfg.QueueDepth = queueDepth
		// A tiny device: the TT table fits, the dense tables that no longer
		// do spill to host memory.
		cfg.Device.HBMBytes = 1 << 16
		cfg.HBMReserve = 0
		sys, err := elrec.BuildSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}
	seq, pipe := build(1), build(4)
	host := 0
	for _, p := range pipe.Placements {
		if p == "host" {
			host++
		}
	}
	fmt.Printf("%d of %d tables in host memory\n", host, len(pipe.Placements))
	seq.Train(0, steps, batch)
	pipe.Train(0, steps, batch)
	fmt.Printf("pipelined steps: %d\n", pipe.Pipeline.Stats().Steps)

	probe := seq.Source().Batch(steps+5, batch)
	a, b := seq.Model().Predict(probe), pipe.Model().Predict(probe)
	var maxDiff float64
	for i := range a {
		maxDiff = math.Max(maxDiff, math.Abs(float64(a[i]-b[i])))
	}
	fmt.Printf("max prediction difference, pipelined vs sequential: %g\n", maxDiff)
	// Output:
	// 4 of 26 tables in host memory
	// pipelined steps: 40
	// max prediction difference, pipelined vs sequential: 0
}
