package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/ps"
	"repro/internal/tt"
)

// faeCoverage is the per-table access coverage of FAE's GPU-resident hot
// set. FAE sizes its cache to HBM, covering the overwhelming majority of
// accesses per table; 0.998 per table over 26 tables yields roughly the
// paper's ~25% cold share on the synthetic datasets.
const faeCoverage = 0.998

// faeProfileBatches is how many batches FAE's (and Table IV's) offline
// profiling pass observes when sizing the hot sets.
const faeProfileBatches = 30

// statsDelta subtracts two pipeline stats snapshots; the hit rate is
// recomputed over the delta's own lookups.
func statsDelta(after, before ps.Stats) ps.Stats {
	d := ps.Stats{
		Steps:               after.Steps - before.Steps,
		BytesPrefetched:     after.BytesPrefetched - before.BytesPrefetched,
		BytesPushed:         after.BytesPushed - before.BytesPushed,
		CacheSyncs:          after.CacheSyncs - before.CacheSyncs,
		CacheHits:           after.CacheHits - before.CacheHits,
		CacheMisses:         after.CacheMisses - before.CacheMisses,
		CacheEvictions:      after.CacheEvictions - before.CacheEvictions,
		LookaheadWindows:    after.LookaheadWindows - before.LookaheadWindows,
		LookaheadPinnedRows: after.LookaheadPinnedRows - before.LookaheadPinnedRows,
		PrefetchWait:        after.PrefetchWait - before.PrefetchWait,
		GatherTime:          after.GatherTime - before.GatherTime,
		ApplyTime:           after.ApplyTime - before.ApplyTime,
		TrainTime:           after.TrainTime - before.TrainTime,
		AdapterTime:         after.AdapterTime - before.AdapterTime,
		InjectedFaults:      after.InjectedFaults - before.InjectedFaults,
		Retries:             after.Retries - before.Retries,
		BackoffTime:         after.BackoffTime - before.BackoffTime,
		StallTime:           after.StallTime - before.StallTime,
		Checkpoints:         after.Checkpoints - before.Checkpoints,
		CacheEntries:        after.CacheEntries, // a level, not a count
	}
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		d.CacheHitRate = float64(d.CacheHits) / float64(lookups)
	}
	return d
}

// pipelineTime converts one pipeline run's stats into modeled time on the
// given device: worker compute scaled to the device; server work at host
// speed plus the per-row parameter-server overhead (hw.PSRowLatency); PCIe
// transfer for the queue traffic. Overlapped projects the pipelined
// schedule, where the server side hides behind worker compute and only the
// longer of the two bounds the step (Figure 9); otherwise the two sides
// serialize (sequential / DLRM execution). Stats always come from a
// sequential (depth 1) measurement run so single-core goroutine contention
// cannot distort the wall times — queue-depth >1 execution is validated
// separately for correctness by the ps package's equivalence tests.
func pipelineTime(st ps.Stats, dev hw.Device, dim int, overlapped bool) time.Duration {
	deviceT := time.Duration(float64(st.TrainTime-st.AdapterTime) / dev.ComputeScale)
	psRows := (st.BytesPrefetched + st.BytesPushed) / int64(dim*4)
	hostT := st.GatherTime + st.ApplyTime + st.AdapterTime + hw.PSAccessTime(psRows)
	commT := pcie.TransferTime(st.BytesPrefetched) + pcie.TransferTime(st.BytesPushed)
	if overlapped {
		if serverSide := hostT + commT; serverSide > deviceT {
			return serverSide
		}
		return deviceT
	}
	return deviceT + hostT + commT
}

// fig11 regenerates Figure 11: end-to-end single-GPU training speedup of
// EL-Rec over DLRM (CPU+GPU), FAE and TT-Rec on the three datasets. rank
// follows the paper: full rank on the V100, half on the T4.
func fig11(sc Scale, dev hw.Device) *Result {
	rank := sc.Rank
	if dev.Name == hw.TeslaT4().Name {
		rank = sc.Rank / 2
		if rank < 2 {
			rank = 2
		}
	}
	r := &Result{
		ID:    "fig11",
		Title: fmt.Sprintf("end-to-end speedup over DLRM, single %s", dev.Name),
		Header: []string{"dataset", "DLRM(CPU+GPU)", "FAE", "TT-Rec", "EL-Rec",
			"FAE spd", "TT-Rec spd", "EL-Rec spd"},
	}
	for _, spec := range datasets(sc) {
		d, err := data.New(spec)
		if err != nil {
			panic(err)
		}
		samples := sc.Steps * sc.Batch

		tDLRM := timeDLRMHost(spec, d, sc, dev)
		tFAE := timeFAE(spec, d, sc, dev)
		tTTRec := timeOnDevice(spec, d, sc, dev, rank, tt.NaiveOptions(), false)
		tELRec := timeOnDevice(spec, d, sc, dev, rank, tt.EffOptions(), true)

		thr := func(t time.Duration) string {
			return fmt.Sprintf("%.0f/s", float64(samples)/t.Seconds())
		}
		r.AddRow(spec.Name,
			thr(tDLRM), thr(tFAE), thr(tTTRec), thr(tELRec),
			fx(float64(tDLRM)/float64(tFAE)),
			fx(float64(tDLRM)/float64(tTTRec)),
			fx(float64(tDLRM)/float64(tELRec)))
	}
	r.AddNote("batch %d, dim %d, rank %d, %d measured steps; paper: EL-Rec 3x over DLRM, 1.5x over FAE, 1.4x over TT-Rec (V100)",
		sc.Batch, sc.EmbDim, rank, sc.Steps)
	return r
}

// timeDLRMHost models the DLRM (CPU+GPU) baseline: every embedding table in
// host memory behind the parameter server, no pre-fetch pipeline.
func timeDLRMHost(spec data.Spec, d *data.Dataset, sc Scale, dev hw.Device) time.Duration {
	cfg := core.DefaultConfig(spec)
	cfg.Model = modelConfig(spec, sc)
	cfg.TTThreshold = -1
	cfg.Reorder = false
	cfg.QueueDepth = 1
	cfg.Device = hw.Device{Name: dev.Name, HBMBytes: 0, ComputeScale: dev.ComputeScale}
	cfg.HBMReserve = 0
	cfg.Metrics = sc.Metrics
	sys, err := core.BuildWithDataset(cfg, d)
	if err != nil {
		panic(err)
	}
	if sys.Pipeline == nil {
		panic("bench: DLRM baseline must spill to host")
	}
	sys.Train(0, sc.WarmSteps, sc.Batch)
	before := sys.Pipeline.Stats()
	sys.Train(sc.WarmSteps, sc.Steps, sc.Batch)
	return pipelineTime(statsDelta(sys.Pipeline.Stats(), before), dev, sc.EmbDim, false)
}

// timeFAE models FAE: hot share on the device, cold share on the host plus
// its transfers.
func timeFAE(spec data.Spec, d *data.Dataset, sc Scale, dev hw.Device) time.Duration {
	tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{Dim: sc.EmbDim, Rank: sc.Rank, TTThreshold: -1, Seed: 17})
	if err != nil {
		panic(err)
	}
	model, err := dlrm.NewModel(modelConfig(spec, sc), tables)
	if err != nil {
		panic(err)
	}
	counts := make([][]int64, spec.NumTables())
	for t := range counts {
		counts[t] = d.AccessCounts(t, faeProfileBatches, sc.Batch)
	}
	fae, err := baselines.NewFAE(model, counts, faeCoverage)
	if err != nil {
		panic(err)
	}
	for it := 0; it < sc.WarmSteps; it++ {
		fae.TrainBatch(d.Batch(it, sc.Batch))
	}
	model.ResetTiming()
	hot0, cold0, bytes0 := fae.HotSamples, fae.ColdSamples, fae.ColdBytes
	for it := sc.WarmSteps; it < sc.WarmSteps+sc.Steps; it++ {
		fae.TrainBatch(d.Batch(it, sc.Batch))
	}
	wall := model.Timing().Total()
	hot, cold := fae.HotSamples-hot0, fae.ColdSamples-cold0
	hotFrac := float64(hot) / float64(hot+cold)
	deviceT := time.Duration(float64(wall) * hotFrac / dev.ComputeScale)
	coldBytes := fae.ColdBytes - bytes0
	hostT := time.Duration(float64(wall)*(1-hotFrac)) + hw.PSAccessTime(coldBytes/int64(sc.EmbDim*4))
	commT := pcie.TransferTime(coldBytes)
	return deviceT + hostT + commT
}

// timeOnDevice models a fully device-resident system (TT-compressed large
// tables): all measured compute scaled to the device, no host traffic.
func timeOnDevice(spec data.Spec, d *data.Dataset, sc Scale, dev hw.Device, rank int, opts tt.Options, reorderOn bool) time.Duration {
	cfg := core.DefaultConfig(spec)
	cfg.Model = modelConfig(spec, sc)
	cfg.Rank = rank
	cfg.TTThreshold = sc.TTThresholdRows
	cfg.Opts = opts
	cfg.Reorder = reorderOn
	cfg.ProfileBatches, cfg.ProfileBatchSize = 8, 512
	cfg.Device = dev
	cfg.Metrics = sc.Metrics
	sys, err := core.BuildWithDataset(cfg, d)
	if err != nil {
		panic(err)
	}
	if sys.Pipeline != nil {
		panic("bench: compressed system unexpectedly spilled to host")
	}
	sys.Train(0, sc.WarmSteps, sc.Batch)
	sys.Model().ResetTiming()
	sys.Train(sc.WarmSteps, sc.Steps, sc.Batch)
	return time.Duration(float64(sys.Model().Timing().Total()) / dev.ComputeScale)
}

// fig12 regenerates Figure 12: training throughput of EL-Rec vs DLRM with 1
// and 4 GPUs. EL-Rec replicates TT tables (data parallel, tiny all-reduce);
// DLRM shards its uncompressed tables (model parallel, all-to-all).
func fig12(sc Scale) *Result {
	spec := data.KaggleSpec(sc.DatasetScale)
	d, err := data.New(spec)
	if err != nil {
		panic(err)
	}
	dev := hw.TeslaV100()
	r := &Result{
		ID:     "fig12",
		Title:  "multi-GPU training throughput (samples/s)",
		Header: []string{"system", "1 GPU", "4 GPU", "scaling"},
	}

	elrec1, elrecComm1 := timeDataParallelTT(spec, d, sc, 1)
	elrec4, elrecComm4 := timeDataParallelTT(spec, d, sc, 4)
	dlrm1, dlrmComm1 := timeModelParallelDense(spec, d, sc, 1)
	dlrm4, dlrmComm4 := timeModelParallelDense(spec, d, sc, 4)

	samples := float64(sc.Steps * sc.Batch)
	thr := func(compute time.Duration, comm time.Duration, n int) float64 {
		total := time.Duration(float64(compute)/float64(n)/dev.ComputeScale) + comm
		return samples / total.Seconds()
	}
	e1, e4 := thr(elrec1, elrecComm1, 1), thr(elrec4, elrecComm4, 4)
	d1, d4 := thr(dlrm1, dlrmComm1, 1), thr(dlrm4, dlrmComm4, 4)
	r.AddRow("DLRM", fmt.Sprintf("%.0f", d1), fmt.Sprintf("%.0f", d4), fx(d4/d1))
	r.AddRow("EL-Rec", fmt.Sprintf("%.0f", e1), fmt.Sprintf("%.0f", e4), fx(e4/e1))
	r.AddRow("EL-Rec/DLRM", fx(e1/d1), fx(e4/d4), "")
	r.AddNote("kaggle-like dataset, batch %d; paper: DLRM slightly ahead at 1 GPU, EL-Rec up to 1.4x ahead at 4 GPUs", sc.Batch)
	return r
}

// timeDataParallelTT measures EL-Rec's replicated-table execution: total
// worker compute (to be divided by the worker count) plus the gradient
// all-reduce of MLP and TT-core parameters.
func timeDataParallelTT(spec data.Spec, d *data.Dataset, sc Scale, n int) (compute, comm time.Duration) {
	tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{
		Dim: sc.EmbDim, Rank: sc.Rank, TTThreshold: sc.TTThresholdRows, Opts: tt.EffOptions(), Seed: 17})
	if err != nil {
		panic(err)
	}
	model, err := dlrm.NewModel(modelConfig(spec, sc), tables)
	if err != nil {
		panic(err)
	}
	sub := sc.Batch / n
	for it := 0; it < sc.WarmSteps*n; it++ {
		model.TrainStep(d.Batch(it, sub))
	}
	model.ResetTiming()
	for it := 0; it < sc.Steps*n; it++ {
		model.TrainStep(d.Batch(sc.WarmSteps*n+it, sub))
	}
	compute = model.Timing().Total()
	var ttBytes int64
	for _, t := range tables {
		if _, ok := t.(*tt.Table); ok {
			ttBytes += t.FootprintBytes()
		}
	}
	perStep := hw.AllReduceTime(nvlink, n, model.MLPBytes()+ttBytes)
	if n > 1 {
		perStep += hw.CollectiveOverhead(2) // one all-reduce for MLP grads, one for TT cores
	}
	comm = perStep * time.Duration(sc.Steps)
	return compute, comm
}

// timeModelParallelDense measures DLRM's multi-GPU execution: uncompressed
// tables row-sharded across devices (all-to-all embedding exchange) with
// data-parallel MLPs.
func timeModelParallelDense(spec data.Spec, d *data.Dataset, sc Scale, n int) (compute, comm time.Duration) {
	tables := make([]dlrm.Table, spec.NumTables())
	shards := make([]*baselines.RowSharded, 0, spec.NumTables())
	dense := dlrm.TableSpec{Dim: sc.EmbDim, TTThreshold: -1, Seed: 17}
	for i, rows := range spec.TableRows {
		if n > 1 && rows >= n {
			sh, err := baselines.NewRowSharded(rows, sc.EmbDim, n, rngFor(17+uint64(i)))
			if err != nil {
				panic(err)
			}
			tables[i] = sh
			shards = append(shards, sh)
		} else {
			tbl, err := dense.Table(i, rows)
			if err != nil {
				panic(err)
			}
			tables[i] = tbl
		}
	}
	model, err := dlrm.NewModel(modelConfig(spec, sc), tables)
	if err != nil {
		panic(err)
	}
	sub := sc.Batch / n
	for it := 0; it < sc.WarmSteps*n; it++ {
		model.TrainStep(d.Batch(it, sub))
	}
	model.ResetTiming()
	var fwd0, bwd0 int64
	for _, sh := range shards {
		fwd0 += sh.Traffic.ForwardBytes
		bwd0 += sh.Traffic.BackwardBytes
	}
	for it := 0; it < sc.Steps*n; it++ {
		model.TrainStep(d.Batch(sc.WarmSteps*n+it, sub))
	}
	compute = model.Timing().Total()
	var fwd, bwd int64
	for _, sh := range shards {
		fwd += sh.Traffic.ForwardBytes
		bwd += sh.Traffic.BackwardBytes
	}
	perPeer := (fwd - fwd0 + bwd - bwd0) / int64(max(1, n-1)) / int64(max(1, sc.Steps*n))
	perStep := hw.AllToAllTime(nvlink, n, perPeer)*2 + hw.AllReduceTime(nvlink, n, model.MLPBytes())
	if n > 1 {
		// The DLRM reference implementation exchanges embeddings with a
		// butterfly shuffle per sharded table, each way, plus one MLP
		// all-reduce — it does not fuse tables the way HugeCTR does.
		perStep += hw.CollectiveOverhead(2*len(shards) + 1)
	}
	comm = perStep * time.Duration(sc.Steps)
	return compute, comm
}

// fig15 regenerates Figure 15: the training-loss convergence of DLRM,
// TT-Rec and EL-Rec on the terabyte-like dataset.
func fig15(sc Scale) *Result {
	spec := data.TerabyteSpec(sc.DatasetScale)
	d, err := data.New(spec)
	if err != nil {
		panic(err)
	}
	r := &Result{
		ID:     "fig15",
		Title:  "loss convergence (smoothed)",
		Header: []string{"iteration", "DLRM", "TT-Rec", "EL-Rec"},
	}
	train := func(thresh int, opts tt.Options, reorderOn bool) []float64 {
		cfg := core.DefaultConfig(spec)
		cfg.Model = modelConfig(spec, sc)
		cfg.Rank = sc.Rank
		cfg.TTThreshold = thresh
		cfg.Opts = opts
		cfg.Reorder = reorderOn
		cfg.ProfileBatches, cfg.ProfileBatchSize = 8, 512
		cfg.Metrics = sc.Metrics
		sys, err := core.BuildWithDataset(cfg, d)
		if err != nil {
			panic(err)
		}
		curve := sys.Train(0, sc.TrainSteps, sc.Batch)
		return curve.Smoothed(sc.TrainSteps / 10)
	}
	dl := train(-1, tt.Options{}, false)
	tr := train(sc.TTThresholdRows, tt.NaiveOptions(), false)
	el := train(sc.TTThresholdRows, tt.EffOptions(), true)
	points := 10
	for p := 1; p <= points; p++ {
		i := p*sc.TrainSteps/points - 1
		r.AddRow(fmt.Sprintf("%d", i+1), f2(dl[i]), f2(tr[i]), f2(el[i]))
	}
	r.AddNote("batch %d; paper: the three curves coincide — tensorization does not slow convergence", sc.Batch)
	return r
}

// fig16 regenerates Figure 16: pipeline vs sequential vs DLRM when the
// largest table is TT-compressed on the device and the rest stay in host
// memory.
func fig16(sc Scale) *Result {
	spec := data.TerabyteSpec(sc.DatasetScale)
	d, err := data.New(spec)
	if err != nil {
		panic(err)
	}
	dev := hw.TeslaV100()
	run := func(queueDepth int, ttLargest bool) ps.Stats {
		p := fig16Pipeline(sc, d, ttLargest, ps.Config{QueueDepth: queueDepth, Metrics: sc.Metrics})
		before := p.Stats()
		if _, err := p.Train(context.Background(), d, sc.WarmSteps, sc.Steps, sc.Batch); err != nil {
			panic(err)
		}
		return statsDelta(p.Stats(), before)
	}

	dlrmStats := run(1, false)
	elrecStats := run(1, true)
	tDLRM := pipelineTime(dlrmStats, dev, sc.EmbDim, false)
	tSeq := pipelineTime(elrecStats, dev, sc.EmbDim, false)
	tPipe := pipelineTime(elrecStats, dev, sc.EmbDim, true)

	samples := float64(sc.Steps * sc.Batch)
	r := &Result{
		ID:     "fig16",
		Title:  "pipeline training throughput (samples/s)",
		Header: []string{"system", "throughput", "speedup vs DLRM"},
	}
	r.AddRow("DLRM", fmt.Sprintf("%.0f", samples/tDLRM.Seconds()), fx(1))
	r.AddRow("EL-Rec (Sequential)", fmt.Sprintf("%.0f", samples/tSeq.Seconds()), fx(float64(tDLRM)/float64(tSeq)))
	r.AddRow("EL-Rec (Pipeline)", fmt.Sprintf("%.0f", samples/tPipe.Seconds()), fx(float64(tDLRM)/float64(tPipe)))
	r.AddNote("largest table TT on device, %d tables on host; paper: pipeline 2.44x over DLRM, 1.30x over sequential",
		spec.NumTables()-1)
	return r
}

// fig16Pipeline builds Figure 16's system over d and trains it through the
// sc.WarmSteps warm-up steps. Every table lives on the host behind the
// parameter server, except that with ttLargest the largest one is Eff-TT on
// the device. cfg supplies the queue depth, lookahead and registry; the
// model and the seeds are the figure's.
func fig16Pipeline(sc Scale, d *data.Dataset, ttLargest bool, cfg ps.Config) *ps.Pipeline {
	spec := d.Spec
	largest := 0
	for t, rows := range spec.TableRows {
		if rows > spec.TableRows[largest] {
			largest = t
		}
	}
	locs := make([]ps.TableLoc, spec.NumTables())
	for i, rows := range spec.TableRows {
		locs[i] = ps.TableLoc{HostRows: rows}
		if ttLargest && i == largest {
			shape, err := tt.NewShape(rows, sc.EmbDim, sc.Rank)
			if err != nil {
				panic(err)
			}
			tbl := tt.NewTable(shape, rngFor(99), 0.05)
			tbl.Opts = tt.EffOptions()
			locs[i] = ps.TableLoc{Device: tbl}
		}
	}
	cfg.Model, cfg.Seed = modelConfig(spec, sc), 3
	p, err := ps.NewPipeline(cfg, locs)
	if err != nil {
		panic(err)
	}
	if _, err := p.Train(context.Background(), d, 0, sc.WarmSteps, sc.Batch); err != nil {
		panic(err)
	}
	return p
}
