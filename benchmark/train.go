package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	elrec "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// setupRepeats is how many times a run sets the system up; the timed steps
// run on the last one.
const setupRepeats = 3

// trainWorkload is one training topology, built through the facade exactly
// as cmd/elrec-train builds it.
type trainWorkload struct {
	name string
	// batch is sized so that one step takes tens of milliseconds: only
	// operations that short have a floor the shared build host lets a run
	// reach (README, "Noise").
	batch int
	// warmup is the untraced steps after BuildSystem that belong to set-up:
	// they size the arenas and, on the pipelined topology, fill the queues.
	warmup    int
	pipelined bool
	configure func(cfg *elrec.SystemConfig)
}

// trainTT is the paper's regime: rank = dim = 64, five TT tables and 21
// dense tables all device-resident, so tt forward/backward is more than
// half the step and ps, its cache and the lookahead planner never run.
var trainTT = trainWorkload{
	name: "train_tt", batch: 128, warmup: 8,
	configure: func(cfg *elrec.SystemConfig) {
		cfg.Model.EmbDim = 64
		cfg.Rank = 64
	},
}

// trainHost puts every table behind the ps pipeline: no TT, no reordering,
// 200 KiB of device memory. ps, ps.Cache, data.Lookahead and the embedding
// gather/scatter all run, tt does nothing and nn is most of the step.
var trainHost = trainWorkload{
	name: "train_host", batch: 256, warmup: 8, pipelined: true,
	configure: func(cfg *elrec.SystemConfig) {
		cfg.Model.EmbDim = 32
		cfg.TTThreshold = -1
		cfg.Reorder = false
		cfg.Device.HBMBytes = 200 << 10
		cfg.HBMReserve = 0
		cfg.QueueDepth = 4
		cfg.Lookahead = 16
	},
}

// config returns the workload's system configuration and batch size. The
// seed reaches the data stream only; model-init seeds stay fixed.
func (w trainWorkload) config(o options) (elrec.SystemConfig, int) {
	scale, batch := 0.01, w.batch
	if o.quick {
		scale, batch = 0.001, 64
	}
	cfg := elrec.DefaultSystemConfig(elrec.Terabyte(scale))
	cfg.Data.Seed = o.seed
	w.configure(&cfg)
	if o.quick {
		// The smoke profile checks the plumbing, not the regime: small
		// cores and a short reordering profile keep it to seconds.
		cfg.Model.EmbDim, cfg.Rank = 16, 8
		cfg.ProfileBatches, cfg.ProfileBatchSize = 4, 128
	}
	return cfg, batch
}

func runTrain(ctx context.Context, o options, w trainWorkload) (*runResult, error) {
	// One tensor worker, as hw.SetHostWorkers documents benchmarks pin it:
	// the traced run's decomposed step must equal TrainStep bit for bit,
	// and the kernels only sum in a fixed order on one worker (with two,
	// the losses of one binary differ in the last place from run to run);
	// the timed run is normalised against a single-threaded reference, and
	// a two-worker step also depends on whether the host's second core is
	// there at that moment (README, "Noise").
	defer hw.SetHostWorkers(hw.HostWorkers())
	hw.SetHostWorkers(1)
	if o.traced {
		return runTrainTraced(ctx, o, w)
	}
	return runTrainTimed(ctx, o, w)
}

// trainSteps runs n consecutive steps in one TrainContext call, counts them
// as attempted operations (a step that did not complete or whose loss is
// not finite is a failed one) and returns the losses and the wall time.
func trainSteps(ctx context.Context, res *runResult, sys *elrec.System, start, n, batch int) ([]float64, time.Duration, error) {
	clock := obs.System()
	t0 := clock.Now()
	tr, err := sys.TrainContext(ctx, start, n, batch)
	wall := obs.Since(clock, t0)
	if err != nil {
		return nil, 0, fmt.Errorf("training steps %d..%d: %w", start, start+n, err)
	}
	res.Attempted += n
	if tr.Completed != n {
		res.fail("steps %d..%d: only %d completed", start, start+n, tr.Completed)
	}
	for i, loss := range tr.Curve.Losses {
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			res.fail("step %d: loss %v is not finite", start+i, loss)
		}
	}
	return tr.Curve.Losses, wall, nil
}

// stepsFor sizes a pass to a time budget from a measured step time.
func stepsFor(budget float64, stepTime time.Duration, lo, hi int) int {
	n := int(budget / stepTime.Seconds())
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// rampSteps is how many steps of a pipelined call the lookahead window
// takes to reach its configured size (it grows 1, 4, 8, 16 within a call);
// they are trained but not timed. settleSteps is the fixed number of steps
// every timed run trains between set-up and timing: peak RSS is read after
// them, so that it belongs to the same work on a fast and on a slow host,
// and their time sizes the pipelined call.
const (
	rampSteps   = 32
	settleSteps = 64
)

// heldOutSamples is the size of the held-out set the timed run's learning
// check scores, in batches of the workload's size far ahead of the stream.
const heldOutSamples = 4096

// Reference pieces run on the measuring goroutine before and after each
// set-up and before each sequential step (a fifth of a step's time).
const (
	setupBurst = 50
	stepBurst  = 20
)

// pipelinedWindows reads the last n steps of a pipelined call off the
// pipeline's own worker lane and groups them into windows of about 200 ms:
// a step is the interval between the starts of consecutive "train" spans,
// i.e. compute, push and any wait for the next prefetched batch, and a
// window's raw value is the mean step time inside it. The ramp steps are
// left out. offset maps the lanes' clock onto the refClock's.
func pipelinedWindows(lanes *obs.Tracer, n int, offset time.Duration) ([]refWindow, error) {
	var starts []time.Duration
	for _, sp := range lanes.Spans() {
		if sp.Name == "train" {
			starts = append(starts, sp.Start+offset)
		}
	}
	if len(starts) < n || lanes.Dropped() > 0 {
		return nil, fmt.Errorf("pipeline lanes hold %d train spans of %d steps (%d spans dropped)", len(starts), n, lanes.Dropped())
	}
	starts = starts[len(starts)-n+rampSteps:]
	step := (starts[len(starts)-1] - starts[0]) / time.Duration(len(starts)-1)
	k := max(1, int(200*time.Millisecond/step))
	var windows []refWindow
	for i := 0; i+k < len(starts); i += k {
		windows = append(windows, refWindow{from: starts[i], to: starts[i+k], raw: us(starts[i+k]-starts[i]) / float64(k)})
	}
	return windows, nil
}

// runTrainTimed is the untraced run: set up three times, settle, then train
// on the last system for -seconds and report the time of one step.
func runTrainTimed(ctx context.Context, o options, w trainWorkload) (*runResult, error) {
	res := newResult(w.name, false)
	cfg, batch := w.config(o)
	clock := obs.System()
	ref := startRef()
	defer ref.stop()
	var lanes *obs.Tracer
	if w.pipelined {
		// A pipelined call hands back no per-step times, and a call short
		// enough to be a timing unit of its own never leaves the lookahead
		// ramp. The pipeline's own stage lanes are the only per-step clock
		// readable from outside: four spans a step, nothing else traced.
		lanes = obs.NewTracer(nil)
		cfg.Trace = lanes
	}

	var (
		sys    *elrec.System
		setups []refWindow
	)
	for i := 0; i < setupRepeats; i++ {
		// Drop the previous system first, and before the set-up that stays
		// restart the high-water mark, so peak RSS is one system's.
		sys = nil
		runtime.GC()
		debug.FreeOSMemory()
		if i == setupRepeats-1 {
			resetPeakRSS()
		}
		from := ref.now()
		ref.burst(setupBurst)
		t0 := clock.Now()
		built, err := elrec.BuildSystem(cfg)
		if err != nil {
			return nil, err
		}
		if _, _, err := trainSteps(ctx, res, built, 0, w.warmup, batch); err != nil {
			return nil, err
		}
		took := obs.Since(clock, t0)
		ref.burst(setupBurst)
		// BuildSystem runs on this goroutine; so do the warm-up steps of the
		// sequential loop, and the pipelined ones are a fraction of it.
		setups = append(setups, refWindow{from: from, to: ref.now(), raw: took.Seconds(), own: true})
		sys = built
	}
	if (sys.Pipeline != nil) != w.pipelined {
		res.fail("pipelined = %t, the workload wants %t", sys.Pipeline != nil, w.pipelined)
	}
	// No reference runs beside the timed run, so it cannot bit-check (the
	// traced run does); it checks that the model learns: the AUC on the
	// same held-out batches must be higher after the timed steps than
	// after the warm-up (0.52 to 0.56 then, 0.57 to 0.64 after 130 steps).
	heldOutAUC := func() float64 {
		_, auc := sys.Evaluate(1<<20, heldOutSamples/batch, batch)
		return auc
	}
	aucBefore := heldOutAUC()
	next := w.warmup
	_, settle, err := trainSteps(ctx, res, sys, next, settleSteps, batch)
	if err != nil {
		return nil, err
	}
	next += settleSteps
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	var windows []refWindow
	if w.pipelined {
		// One call for the whole budget: the lookahead ramp restarts with
		// every call, so only a long call measures the steady state.
		n := stepsFor(o.seconds, settle/settleSteps, 2*rampSteps, 1<<16)
		if _, _, err := trainSteps(ctx, res, sys, next, n, batch); err != nil {
			return nil, err
		}
		if windows, err = pipelinedWindows(lanes, n, lanes.Epoch().Sub(ref.epoch)); err != nil {
			return nil, err
		}
	} else {
		budget := time.Duration(o.seconds * float64(time.Second))
		for t0 := clock.Now(); len(windows) < 2*rampSteps || obs.Since(clock, t0) < budget; next++ {
			from := ref.now()
			ref.burst(stepBurst)
			_, wall, err := trainSteps(ctx, res, sys, next, 1, batch)
			if err != nil {
				return nil, err
			}
			windows = append(windows, refWindow{from: from, to: ref.now(), raw: us(wall), own: true})
		}
	}
	ref.stop()
	res.Attempted++
	if aucAfter := heldOutAUC(); !(aucAfter > aucBefore) {
		res.fail("held-out AUC %v after the timed steps is not above %v after the warm-up", aucAfter, aucBefore)
	}

	stepUS := ref.normalise(windows)
	setupS := ref.normalise(setups)
	if len(stepUS) == 0 || len(setupS) == 0 {
		return nil, errors.New("no reference piece was recorded beside the timed work")
	}
	res.Segments["op_time_us"] = segmentMedians(stepUS)
	res.Segments["op_time_raw_us"] = segmentMedians(rawOf(windows))
	res.Segments["setup_s"] = setupS
	res.Segments["setup_raw_s"] = rawOf(setups)
	res.Samples["windows"] = len(stepUS)
	emit(res, endToEndMetrics, map[string]float64{
		"op_time_us":  median(stepUS), // one training step
		"setup_s":     median(setupS), // BuildSystem + warm-up
		"peak_rss_mb": rss,
	})
	return res, nil
}

// psFreeTwin builds the plain single-worker model at the system's dims: the
// same tables and towers with nothing between the model and its tables.
func psFreeTwin(cfg elrec.SystemConfig) (*dlrm.Model, error) {
	tables, _, err := dlrm.BuildTables(cfg.Data.TableRows, dlrm.TableSpec{
		Dim: cfg.Model.EmbDim, Rank: cfg.Rank, TTThreshold: cfg.TTThreshold, Opts: cfg.Opts, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return dlrm.NewModel(cfg.Model, tables)
}

// timeReorderBuild re-issues the reorder.Build calls core.Build makes (same
// profiled batches, same config) and returns the time spent inside them.
func timeReorderBuild(sys *elrec.System) (time.Duration, error) {
	cfg := sys.Cfg
	if !cfg.Reorder {
		return 0, nil
	}
	batches := make([]*data.Batch, cfg.ProfileBatches)
	for it := range batches {
		batches[it] = sys.Dataset.Batch(it, cfg.ProfileBatchSize)
	}
	clock := obs.System()
	var total time.Duration
	for i, bij := range sys.Bijections {
		if bij == nil {
			continue
		}
		counts := make([]int64, cfg.Data.TableRows[i])
		cols := make([][]int, len(batches))
		for bi, b := range batches {
			cols[bi] = b.Sparse[i]
			for _, idx := range b.Sparse[i] {
				counts[idx]++
			}
		}
		t0 := clock.Now()
		if _, err := reorder.Build(counts, cols, cfg.ReorderCfg); err != nil {
			return 0, fmt.Errorf("reorder table %d: %w", i, err)
		}
		total += obs.Since(clock, t0)
	}
	return total, nil
}

// tracedStep is Model.TrainStep over batch iter re-issued as its exported
// constituent calls, one span per call under a "step" root, so every layer
// is timed from outside. It returns TrainStep's loss bit for bit.
func tracedStep(tr *obs.Tracer, sys *elrec.System, m *dlrm.Model, embs []*tensor.Matrix, iter, batch int) float32 {
	root := tr.BeginTrace("step", "dlrm", tidBench)
	var b *data.Batch
	span(tr, root, "data.batch", func() { b = sys.Dataset.Batch(iter, batch) })
	span(tr, root, "reorder.apply", func() {
		for t, bij := range sys.Bijections {
			if bij != nil {
				b.Sparse[t] = bij.Apply(b.Sparse[t])
			}
		}
	})
	var z0, x, logits, dLogits, dx, dDense *tensor.Matrix
	var dEmbs []*tensor.Matrix
	var loss float32
	span(tr, root, "nn.bottom_fwd", func() { z0 = m.Bottom.Forward(b.Dense) })
	for t, tbl := range m.Tables {
		span(tr, root, tableLayer(tbl)+".lookup", func() { embs[t] = tbl.Lookup(b.Sparse[t], b.Offsets) })
	}
	span(tr, root, "nn.interaction_fwd", func() { x = m.Interaction.Forward(z0, embs) })
	span(tr, root, "nn.top_fwd", func() { logits = m.Top.Forward(x) })
	span(tr, root, "nn.loss", func() { loss, dLogits = nn.BCEWithLogits(logits, b.Labels) })
	span(tr, root, "nn.top_bwd", func() { dx = m.Top.Backward(dLogits) })
	span(tr, root, "nn.interaction_bwd", func() { dDense, dEmbs = m.Interaction.Backward(dx) })
	span(tr, root, "nn.bottom_bwd", func() { m.Bottom.Backward(dDense) })
	for t, tbl := range m.Tables {
		span(tr, root, tableLayer(tbl)+".update", func() { tbl.Update(b.Sparse[t], b.Offsets, dEmbs[t], m.Cfg.LR) })
	}
	span(tr, root, "nn.sgd", m.ApplyStep)
	root.End()
	return loss
}

// tableLayer names the package that implements a table.
func tableLayer(tbl dlrm.Table) string {
	if _, ok := tbl.(*tt.Table); ok {
		return "tt"
	}
	return "embedding"
}

// runTrainTraced is the traced run. It decomposes the training step on a
// model A (the system's own on train_tt; a PS-free twin on train_host,
// where the system's tables are pipeline adapters) and checks every loss
// against Model.TrainStep on a same-seed reference B, then measures
// checkpointing and, on the pipelined topology, the ps stages.
func runTrainTraced(ctx context.Context, o options, w trainWorkload) (*runResult, error) {
	res := newResult(w.name, true)
	cfg, batch := w.config(o)
	clock := obs.System()
	tr := obs.NewTracer(nil)
	tr.SetThreadName(tidBench, "benchmark")
	if w.pipelined {
		cfg.Trace = tr // the gather/train/apply lanes land in the same trace file
	}
	v := map[string]float64{}

	t0 := clock.Now()
	sys, err := elrec.BuildSystem(cfg)
	if err != nil {
		return nil, err
	}
	v["core.build_s"] = obs.Since(clock, t0).Seconds()
	v["core.compression_ratio"] = sys.CompressionRatio()
	reorderBuild, err := timeReorderBuild(sys)
	if err != nil {
		return nil, err
	}
	v["reorder.build_s"] = reorderBuild.Seconds()
	_, warmWall, err := trainSteps(ctx, res, sys, 0, w.warmup, batch)
	if err != nil {
		return nil, err
	}
	stepTime := warmWall / time.Duration(w.warmup) // sizes the traced passes to -seconds
	steps := stepsFor(o.seconds*0.3, stepTime, 3, 40)

	// Model A, warmed exactly like reference B below.
	a, start := sys.Model(), w.warmup
	if w.pipelined {
		if a, err = psFreeTwin(cfg); err != nil {
			return nil, err
		}
		for it := 0; it < start; it++ {
			a.TrainStep(sys.Source().Batch(it, batch))
		}
	}
	reg := obs.NewRegistry()
	var ttBytes int64
	for _, tbl := range a.Tables {
		if t, ok := tbl.(*tt.Table); ok {
			t.AttachMetrics(reg)
			ttBytes += t.FootprintBytes()
		}
	}
	// Reference B: the same steps through TrainStep, untraced and timed.
	// A and B alternate step by step so that both see the same host.
	var b *dlrm.Model
	if w.pipelined {
		b, err = psFreeTwin(cfg)
	} else {
		var twin *elrec.System
		if twin, err = elrec.BuildSystem(cfg); err == nil {
			b = twin.Model()
		}
	}
	if err != nil {
		return nil, err
	}
	for it := 0; it < start; it++ {
		b.TrainStep(sys.Source().Batch(it, batch))
	}
	var refWall time.Duration
	var lastLoss float32
	embs := make([]*tensor.Matrix, len(a.Tables))
	for k := 0; k < steps; k++ {
		lastLoss = tracedStep(tr, sys, a, embs, start+k, batch)
		in := sys.Source().Batch(start+k, batch)
		t0 := clock.Now()
		want := b.TrainStep(in)
		refWall += obs.Since(clock, t0)
		res.Attempted++
		if math.Float32bits(lastLoss) != math.Float32bits(want) {
			res.fail("step %d: decomposed loss %v != TrainStep loss %v", start+k, lastLoss, want)
		}
	}
	refStep := refWall / time.Duration(steps)

	ops := collectOps(tr.Spans(), "step")
	if len(ops) != steps {
		res.fail("trace holds %d step roots, want %d", len(ops), steps)
	}
	perStep := func(name string) float64 { return mean(partValues(ops, name, ms)) }
	for _, name := range []string{
		"data.batch", "reorder.apply",
		"nn.bottom_fwd", "nn.bottom_bwd", "nn.top_fwd", "nn.top_bwd",
		"nn.interaction_fwd", "nn.interaction_bwd", "nn.loss", "nn.sgd",
		"tt.lookup", "tt.update", "embedding.lookup", "embedding.update",
	} {
		v[name+"_ms"] = perStep(name)
	}
	var rootMS, childMS, slowest float64
	for _, op := range ops {
		rootMS += ms(op.root)
		childMS += ms(op.children)
		slowest = math.Max(slowest, us(op.root))
	}
	v["diag.latency_p99_us"] = slowest // too few steps for a percentile: the slowest one
	v["dlrm.step_ms"] = ratio(rootMS, float64(len(ops)))
	v["dlrm.unattributed_share"] = ratio(rootMS-childMS, rootMS)
	if v["dlrm.unattributed_share"] > 0.05 {
		res.fail("layer spans leave %.1f%% of the step unattributed, tolerance 5%%", 100*v["dlrm.unattributed_share"])
	}
	// Tracing overhead: the model part of the traced step against the
	// untraced TrainStep on the reference.
	modelMS := v["dlrm.step_ms"] - v["data.batch_ms"] - v["reorder.apply_ms"]
	v["bench.trace_overhead_share"] = ratio(modelMS, ms(refStep)) - 1
	v["diag.final_loss"] = float64(lastLoss)

	snap := reg.Snapshot()
	v["tt.dedup_ratio"] = snap.Gauges["tt_dedup_ratio"]
	v["tt.prefix_hit_rate"] = snap.Gauges["tt_prefix_hit_rate"]
	hits, misses := float64(snap.Counter("tt_prefix_cache_hits")), float64(snap.Counter("tt_prefix_cache_misses"))
	v["tt.prefix_cache_hit_rate"] = ratio(hits, hits+misses)
	v["tt.footprint_mb"] = float64(ttBytes) / 1e6

	// The iterations the system itself has trained: on the pipelined
	// topology the decomposed steps ran on the twin.
	next := start
	if !w.pipelined {
		next += steps
	}
	if err := traceCheckpoint(o, res, sys, next, v); err != nil {
		return nil, err
	}
	if w.pipelined {
		if err := tracePipeline(ctx, o, res, tr, sys, b, next, batch, stepTime, refStep, v); err != nil {
			return nil, err
		}
	}

	res.TraceFile = filepath.Join(o.outDir, "trace_"+w.name+".json")
	if err := tr.WriteChromeTraceFile(res.TraceFile); err != nil {
		return nil, err
	}
	res.Samples["traced_steps"] = steps
	emit(res, perLayerMetrics, v)
	return res, nil
}

// traceCheckpoint times a checkpoint round trip through the system's own
// entry points.
func traceCheckpoint(o options, res *runResult, sys *elrec.System, nextIter int, v map[string]float64) error {
	dir, err := os.MkdirTemp(o.outDir, "train-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "train.ckpt")
	clock := obs.System()
	t0 := clock.Now()
	if err := sys.SaveCheckpoint(ckpt, nextIter); err != nil {
		return err
	}
	v["checkpoint.save_ms"] = ms(obs.Since(clock, t0))
	t0 = clock.Now()
	resumeAt, err := sys.ResumeFrom(ckpt)
	if err != nil {
		return err
	}
	v["checkpoint.load_ms"] = ms(obs.Since(clock, t0))
	res.Attempted++
	if resumeAt != nextIter {
		res.fail("checkpoint resumes at iteration %d, saved %d", resumeAt, nextIter)
	}
	st, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	v["checkpoint.bytes"] = float64(st.Size())
	return nil
}

// tracePipeline measures the ps stages: Pipeline.Stats() deltas over a
// pipelined pass (the pipeline records its own lanes into tr), then direct
// calls of the planner and the host-table gather/scatter on a step's ids.
// twin is the PS-free reference model, whose bags stand in for the host
// tables so the direct calls cannot disturb the system.
func tracePipeline(ctx context.Context, o options, res *runResult, tr *obs.Tracer, sys *elrec.System,
	twin *dlrm.Model, start, batch int, stepTime, twinStep time.Duration, v map[string]float64) error {
	steps := stepsFor(o.seconds*0.3, stepTime, 2*rampSteps, 256) // past the lookahead ramp
	before := sys.Pipeline.Stats()
	_, wall, err := trainSteps(ctx, res, sys, start, steps, batch)
	if err != nil {
		return err
	}
	after := sys.Pipeline.Stats()
	n := float64(steps)
	perStepMS := func(a, b time.Duration) float64 { return ms(a-b) / n }
	v["ps.gather_ms"] = perStepMS(after.GatherTime, before.GatherTime)
	v["ps.train_ms"] = perStepMS(after.TrainTime, before.TrainTime)
	v["ps.adapter_ms"] = perStepMS(after.AdapterTime, before.AdapterTime)
	v["ps.apply_ms"] = perStepMS(after.ApplyTime, before.ApplyTime)
	v["ps.prefetch_wait_ms"] = perStepMS(after.PrefetchWait, before.PrefetchWait)
	v["ps.stall_ms"] = perStepMS(after.StallTime, before.StallTime)
	dHits := float64(after.CacheHits - before.CacheHits)
	v["ps.cache_hit_rate"] = ratio(dHits, dHits+float64(after.CacheMisses-before.CacheMisses))
	v["ps.prefetched_kb"] = float64(after.BytesPrefetched-before.BytesPrefetched) / 1e3 / n
	v["ps.pushed_kb"] = float64(after.BytesPushed-before.BytesPushed) / 1e3 / n
	v["ps.cache_evictions"] = float64(after.CacheEvictions-before.CacheEvictions) / n
	v["ps.lookahead_windows"] = float64(after.LookaheadWindows - before.LookaheadWindows)
	v["ps.lookahead_pinned_rows"] = float64(after.LookaheadPinnedRows-before.LookaheadPinnedRows) / n
	v["ps.retries"] = float64(after.Retries - before.Retries)
	v["ps.worker_busy_share"] = ratio(float64(after.TrainTime-before.TrainTime), float64(wall))
	v["ps.pipeline_overhead_share"] = 1 - ratio(float64(twinStep), float64(wall)/n)
	res.Samples["ps_steps"] = steps
	if after.Steps-before.Steps != steps {
		res.fail("pipeline counted %d steps, ran %d", after.Steps-before.Steps, steps)
	}

	var hostTables, hostRows []int
	for t, p := range sys.Placements {
		if p == core.PlaceHost {
			hostTables = append(hostTables, t)
			hostRows = append(hostRows, sys.Cfg.Data.TableRows[t])
		}
	}
	window := sys.Cfg.Lookahead
	la, err := data.NewLookahead(sys.Source(), data.LookaheadConfig{
		Window: window, Batch: batch, Tables: hostTables, Rows: hostRows,
	})
	if err != nil {
		return err
	}
	const reps = 3
	for r := 0; r < reps; r++ {
		iter := start + steps + r*window
		in := sys.Source().Batch(iter, batch)
		root := tr.BeginTrace("ps.direct", "bench", tidBench)
		span(tr, root, "data.lookahead_advance", func() { la.Advance(iter, window).Release() })
		for _, t := range hostTables {
			bag, ok := twin.Tables[t].(*embedding.Bag)
			if !ok {
				return fmt.Errorf("twin table %d is %T, want *embedding.Bag", t, twin.Tables[t])
			}
			uniq, _ := embedding.Unique(in.Sparse[t])
			zero := tensor.New(len(uniq), bag.Dim())
			span(tr, root, "embedding.gather_rows", func() { bag.GatherRows(uniq) })
			span(tr, root, "embedding.scatter_add", func() { bag.ScatterAdd(uniq, zero) })
		}
		root.End()
	}
	direct := collectOps(tr.Spans(), "ps.direct")
	// One Advance plans a whole window; the other two calls serve one step.
	v["data.lookahead_advance_ms"] = mean(partValues(direct, "data.lookahead_advance", ms)) / float64(window)
	v["embedding.gather_rows_ms"] = mean(partValues(direct, "embedding.gather_rows", ms))
	v["embedding.scatter_add_ms"] = mean(partValues(direct, "embedding.scatter_add", ms))
	return nil
}
