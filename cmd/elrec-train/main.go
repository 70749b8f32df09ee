// Command elrec-train trains a full EL-Rec system end to end on one of the
// synthetic datasets and reports the loss curve, held-out accuracy/AUC, and
// the placement/compression summary as structured key=value log lines.
//
// Usage:
//
//	elrec-train -dataset terabyte -dataset-scale 0.005 -steps 2000
//	elrec-train -dataset kaggle -no-reorder -naive-tt   # TT-Rec ablation
//	elrec-train -dataset avazu -tt-threshold -1         # uncompressed DLRM
//
// Observability: every run keeps a metrics registry (pipeline ps_*, TT
// tt_* instruments). -debug-addr exposes it over HTTP while training:
//
//	elrec-train -steps 5000 -debug-addr localhost:6060 &
//	curl localhost:6060/metrics      # JSON snapshot of all instruments
//	curl localhost:6060/trace        # Chrome trace-event JSON (Perfetto)
//	go tool pprof localhost:6060/debug/pprof/profile
//
// -trace writes the pipeline stage spans (gather/train/apply on separate
// tracks) to a Chrome trace-event file on exit; open it in
// https://ui.perfetto.dev to see the stage overlap.
//
// Fault tolerance: training runs under a context cancelled by Ctrl-C
// (SIGINT/SIGTERM), so an interrupted run drains the pipeline gracefully and
// reports the next resumable iteration. With -checkpoint the full training
// state (model, optimizer state, host tables, iteration counter) is written
// atomically every -checkpoint-every steps and once more at the drain point;
// -resume restores it and continues bit-exactly:
//
//	elrec-train -steps 5000 -checkpoint run.ckpt -checkpoint-every 500
//	^C  (interrupt mid-run; state saved at the drain point)
//	elrec-train -steps 5000 -checkpoint run.ckpt -checkpoint-every 500 -resume run.ckpt
//
// -save writes the weights-only model file `elrec-serve -load` reads. It
// carries no index bijection, so it is refused (exit 2, before the first
// step) unless reordering is off, and for pipelined systems:
//
//	elrec-train -no-reorder -steps 2000 -save model.bin
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	elrec "repro"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tt"
)

func main() {
	// Exit via a return code so deferred cleanup (trace export, debug
	// endpoint shutdown) runs before the process ends.
	os.Exit(run())
}

func run() int {
	var (
		dataset      = flag.String("dataset", "terabyte", "dataset: avazu, kaggle or terabyte")
		datasetScale = flag.Float64("dataset-scale", 0.002, "dataset cardinality multiplier")
		steps        = flag.Int("steps", 1000, "training steps")
		batch        = flag.Int("batch", 512, "batch size")
		dim          = flag.Int("dim", 16, "embedding dimension")
		rank         = flag.Int("rank", 8, "TT rank")
		lr           = flag.Float64("lr", 1.0, "learning rate")
		ttThreshold  = flag.Int("tt-threshold", 10_000, "min rows for TT compression (-1 disables compression)")
		queueDepth   = flag.Int("queue", 4, "pre-fetch/gradient queue depth (1 = sequential)")
		lookahead    = flag.Int("lookahead", 0, "data-pipeline planning window in batches (0 or 1 disables oracle prefetching)")
		noReorder    = flag.Bool("no-reorder", false, "disable locality-based index reordering")
		adagrad      = flag.Bool("adagrad", false, "use Adagrad for embedding tables instead of SGD")
		naiveTT      = flag.Bool("naive-tt", false, "use the TT-Rec baseline table instead of Eff-TT")
		evalBatches  = flag.Int("eval", 10, "held-out evaluation batches")
		logEvery     = flag.Int("log-every", 100, "progress-line interval in steps")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /trace and pprof on this address while training")
		tracePath    = flag.String("trace", "", "write Chrome trace-event JSON of the pipeline stages to this path on exit")
		hbmGB        = flag.Float64("hbm-gb", -1, "override the device HBM capacity in GiB (<0: device default); small values force host placement and the pipelined trainer")
		savePath     = flag.String("save", "", "save the trained model (weights only, for elrec-serve -load) to this path; needs -no-reorder and a device-resident model")
		ckptPath     = flag.String("checkpoint", "", "write crash-consistent training checkpoints to this path")
		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint interval in steps (requires -checkpoint)")
		resumePath   = flag.String("resume", "", "resume training from a checkpoint written by -checkpoint")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	log := obs.NewLogger(os.Stderr, level, nil)

	spec, err := data.SpecByName(*dataset, *datasetScale)
	if err != nil {
		log.Error("invalid flags", "err", err)
		return 2
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{{"steps", *steps, 0}, {"batch", *batch, 1}, {"log-every", *logEvery, 1}, {"eval", *evalBatches, 0}} {
		if f.val < f.min {
			log.Error("invalid flags", "err", fmt.Errorf("-%s %d: must be at least %d", f.name, f.val, f.min))
			return 2
		}
	}

	cfg := elrec.DefaultSystemConfig(spec)
	cfg.Model.EmbDim = *dim
	cfg.Model.LR = float32(*lr)
	cfg.Rank = *rank
	cfg.TTThreshold = *ttThreshold
	cfg.QueueDepth = *queueDepth
	cfg.Lookahead = *lookahead
	cfg.Reorder = !*noReorder && *ttThreshold >= 0
	cfg.Adagrad = *adagrad
	if *naiveTT {
		cfg.Opts = tt.NaiveOptions()
	}
	cfg.CheckpointPath = *ckptPath
	cfg.CheckpointEvery = *ckptEvery
	if *hbmGB >= 0 {
		cfg.Device.HBMBytes = int64(*hbmGB * float64(1<<30))
		cfg.HBMReserve = 0
	}

	// Every run carries the registry — the instruments are near-free and
	// feed both the progress line and the debug endpoint. The tracer is
	// only worth its ring buffer when something will read it.
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	var tracer *obs.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = obs.NewTracer(nil)
		cfg.Trace = tracer
	}

	sys, err := elrec.BuildSystem(cfg)
	if err != nil {
		log.Error("build failed", "err", err)
		return 1
	}

	if *savePath != "" {
		// Refuse before the first step, not after the last one.
		if err := sys.CanSaveModel(); err != nil {
			log.Error("invalid flags: -save", "err", err)
			return 2
		}
	}

	if *debugAddr != "" {
		dbg, srvErr := obs.Serve(*debugAddr, reg, tracer)
		if srvErr != nil {
			log.Error("debug endpoint failed", "err", srvErr)
			return 1
		}
		defer dbg.Close()
		log.Info("debug endpoint up", "addr", dbg.Addr())
	}
	if *tracePath != "" {
		defer func() {
			if wErr := tracer.WriteChromeTraceFile(*tracePath); wErr != nil {
				log.Error("trace export failed", "err", wErr)
			} else {
				log.Info("trace written", "path", *tracePath, "spans", len(tracer.Spans()))
			}
		}()
	}

	log.Info("dataset", "name", spec.Name, "scale", *datasetScale,
		"tables", spec.NumTables(), "dense_features", spec.NumDense)
	for i, p := range sys.Placements {
		log.Debug("placement", "table", i, "rows", spec.TableRows[i], "where", p)
	}
	log.Info("embedding parameters",
		"device_mb", float64(sys.DeviceBytes)/1e6,
		"host_mb", float64(sys.HostBytes)/1e6,
		"compression", sys.CompressionRatio(),
		"pipelined", sys.Pipeline != nil)

	start := 0
	if *resumePath != "" {
		start, err = sys.ResumeFrom(*resumePath)
		if err != nil {
			log.Error("resume failed", "err", err)
			return 1
		}
		log.Info("resumed", "path", *resumePath, "iteration", start)
	}

	// Ctrl-C cancels the training context; the pipeline drains in-flight
	// batches and applies every queued gradient before returning, so the
	// reported resume iteration is always consistent with the tables.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Info("training", "steps", *steps-start, "batch", *batch, "kernels", tensor.KernelName())
	done := start
	for done < *steps {
		chunk := *logEvery
		if done+chunk > *steps {
			chunk = *steps - done
		}
		chunkStart := time.Now()
		res, trainErr := sys.TrainContext(ctx, done, chunk, *batch)
		done += res.Completed
		if res.Completed > 0 {
			kv := []any{
				"step", done,
				"loss", res.Curve.Final(res.Completed),
				"steps_per_sec", rate(res.Completed, time.Since(chunkStart)),
			}
			if sys.Pipeline != nil {
				kv = append(kv, "cache_hit_rate", cacheHitRate(reg))
			}
			log.Info("progress", kv...)
		}
		if trainErr != nil {
			if errors.Is(trainErr, context.Canceled) {
				log.Warn("interrupted", "iterations", done)
			} else {
				log.Error("training failed", "err", trainErr)
			}
			if res.Resumable && *ckptPath != "" {
				if err := sys.SaveCheckpoint(*ckptPath, res.NextIter); err != nil {
					log.Error("checkpoint at drain point failed", "err", err)
					return 1
				}
				log.Info("state saved", "path", *ckptPath, "resume_iteration", res.NextIter)
			} else if res.Resumable {
				log.Info("resumable (rerun with -checkpoint to persist state)", "resume_iteration", res.NextIter)
			}
			return 1
		}
	}

	acc, auc := sys.Evaluate(*steps+1, *evalBatches, *batch)
	log.Info("held-out eval", "accuracy", acc, "auc", auc, "batches", *evalBatches)
	if *savePath != "" {
		if err := sys.SaveModel(*savePath); err != nil {
			log.Error("save failed", "err", err)
			return 1
		}
		log.Info("model saved", "path", *savePath)
	}
	if sys.Pipeline != nil {
		st := sys.Pipeline.Stats()
		log.Info("pipeline totals",
			"steps", st.Steps,
			"prefetched_mb", float64(st.BytesPrefetched)/1e6,
			"pushed_mb", float64(st.BytesPushed)/1e6,
			"cache_hit_rate", cacheHitRate(reg),
			"cache_evictions", st.CacheEvictions)
		if st.LookaheadWindows > 0 {
			log.Info("lookahead totals",
				"windows", st.LookaheadWindows,
				"pinned_rows", st.LookaheadPinnedRows,
				"prefetch_wait", st.PrefetchWait)
		}
		if st.Retries > 0 || st.Checkpoints > 0 {
			log.Info("pipeline faults",
				"retries", st.Retries, "backoff", st.BackoffTime, "checkpoints", st.Checkpoints)
		}
	}
	return 0
}

// rate converts a completed-step count and wall time into steps/second.
func rate(completed int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(completed) / elapsed.Seconds()
}

// cacheHitRate derives the cumulative embedding-cache hit rate from the registry.
func cacheHitRate(reg *obs.Registry) float64 {
	snap := reg.Snapshot()
	hits, misses := snap.Counter("ps_cache_hits"), snap.Counter("ps_cache_misses")
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
