// Command elrec-train trains a full EL-Rec system end to end on one of the
// synthetic datasets and reports the loss curve, held-out accuracy/AUC, and
// the placement/compression summary as structured key=value log lines.
//
// Usage:
//
//	elrec-train -dataset terabyte -dataset-scale 0.005 -steps 2000
//	elrec-train -dataset kaggle -no-reorder -adagrad   # no reordering, Adagrad tables
//	elrec-train -dataset avazu -tt-threshold -1        # uncompressed DLRM
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
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	elrec "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func main() {
	// Exit via a return code so deferred cleanup (trace export, debug
	// endpoint shutdown) runs before the process ends.
	os.Exit(run())
}

// evalBatches is the held-out evaluation length, in batches.
const evalBatches = 10

// options is elrec-train's command line, defined on a flag set by newOptions.
type options struct {
	spec                                  core.RunSpec
	queue, lookahead, logEvery, ckptEvery int
	noReorder, adagrad                    bool
	hbmGB                                 float64
	debugAddr, tracePath                  string
	savePath, ckptPath, resume            string
	logLevel                              slog.Level
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{spec: core.DefaultRunSpec()}
	o.spec.Steps, o.spec.Batch = 1000, 512
	o.spec.RegisterFlags(fs)
	fs.IntVar(&o.queue, "queue", 4, "pre-fetch/gradient queue depth (1 = sequential)")
	fs.IntVar(&o.lookahead, "lookahead", 0, "data-pipeline planning window in batches (0 or 1 disables oracle prefetching)")
	fs.BoolVar(&o.noReorder, "no-reorder", false, "disable locality-based index reordering")
	fs.BoolVar(&o.adagrad, "adagrad", false, "use Adagrad for embedding tables instead of SGD")
	fs.IntVar(&o.logEvery, "log-every", 100, "progress-line interval in steps")
	fs.TextVar(&o.logLevel, "log-level", slog.LevelInfo, "log level: debug, info, warn or error")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /trace and pprof on this address while training")
	fs.StringVar(&o.tracePath, "trace", "", "write Chrome trace-event JSON of the pipeline stages to this path on exit")
	fs.Float64Var(&o.hbmGB, "hbm-gb", -1, "override the device HBM capacity in GiB (<0: device default); small values force host placement and the pipelined trainer")
	fs.StringVar(&o.savePath, "save", "", "save the trained model (weights only, for elrec-serve -load) to this path; needs -no-reorder and a device-resident model")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "write crash-consistent training checkpoints to this path")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "checkpoint interval in steps (requires -checkpoint)")
	fs.StringVar(&o.resume, "resume", "", "resume training from a checkpoint written by -checkpoint")
	return o
}

func run() int {
	o := newOptions(flag.CommandLine)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))

	spec, err := o.spec.Validate()
	if err == nil && o.logEvery < 1 {
		err = fmt.Errorf("-log-every %d: must be at least 1", o.logEvery)
	}
	if err != nil {
		log.Error("invalid flags", "err", err)
		return 2
	}
	log.Info("run spec", "spec", o.spec.JSON())
	steps, batch := o.spec.Steps, o.spec.Batch

	cfg := elrec.DefaultSystemConfig(spec)
	cfg.Model.EmbDim = o.spec.Dim
	cfg.Model.LR = float32(o.spec.LR)
	cfg.Rank = o.spec.Rank
	cfg.TTThreshold = o.spec.TTThreshold
	cfg.QueueDepth = o.queue
	cfg.Lookahead = o.lookahead
	cfg.Reorder = !o.noReorder && o.spec.TTThreshold >= 0
	cfg.Adagrad = o.adagrad
	cfg.Checkpoint.Path = o.ckptPath
	cfg.Checkpoint.Every = o.ckptEvery
	if o.hbmGB >= 0 {
		cfg.Device.HBMBytes = int64(o.hbmGB * float64(1<<30))
		cfg.HBMReserve = 0
	}

	// Every run carries the registry — the instruments are near-free and
	// feed both the progress line and the debug endpoint. The tracer is
	// only worth its ring buffer when something will read it.
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	var tracer *obs.Tracer
	if o.tracePath != "" || o.debugAddr != "" {
		tracer = obs.NewTracer(nil)
		cfg.Trace = tracer
	}

	sys, err := elrec.BuildSystem(cfg)
	if err != nil {
		log.Error("build failed", "err", err)
		return 1
	}

	if o.savePath != "" {
		// Refuse before the first step, not after the last one.
		if err := sys.CanSaveModel(); err != nil {
			log.Error("invalid flags: -save", "err", err)
			return 2
		}
	}

	if o.debugAddr != "" {
		dbg, srvErr := obs.Serve(o.debugAddr, reg, tracer)
		if srvErr != nil {
			log.Error("debug endpoint failed", "err", srvErr)
			return 1
		}
		defer dbg.Close()
		log.Info("debug endpoint up", "addr", dbg.Addr())
	}
	if o.tracePath != "" {
		defer func() {
			if wErr := tracer.WriteChromeTraceFile(o.tracePath); wErr != nil {
				log.Error("trace export failed", "err", wErr)
			} else {
				log.Info("trace written", "path", o.tracePath, "spans", len(tracer.Spans()))
			}
		}()
	}

	log.Info("dataset", "name", spec.Name, "scale", o.spec.DatasetScale,
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
	if o.resume != "" {
		start, err = sys.ResumeFrom(o.resume)
		if err != nil {
			log.Error("resume failed", "err", err)
			return 1
		}
		log.Info("resumed", "path", o.resume, "iteration", start)
	}

	// Ctrl-C cancels the training context; the pipeline drains in-flight
	// batches and applies every queued gradient before returning, so the
	// reported resume iteration is always consistent with the tables.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Info("training", "steps", steps-start, "batch", batch, "kernels", tensor.KernelName())
	done := start
	for done < steps {
		chunk := o.logEvery
		if done+chunk > steps {
			chunk = steps - done
		}
		chunkStart := time.Now()
		res, trainErr := sys.TrainContext(ctx, done, chunk, batch)
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
			if res.Resumable && o.ckptPath != "" {
				if err := sys.SaveCheckpoint(o.ckptPath, res.NextIter); err != nil {
					log.Error("checkpoint at drain point failed", "err", err)
					return 1
				}
				log.Info("state saved", "path", o.ckptPath, "resume_iteration", res.NextIter)
			} else if res.Resumable {
				log.Info("resumable (rerun with -checkpoint to persist state)", "resume_iteration", res.NextIter)
			}
			return 1
		}
	}

	acc, auc := sys.Evaluate(steps+1, evalBatches, batch)
	log.Info("held-out eval", "accuracy", acc, "auc", auc, "batches", evalBatches)
	if o.savePath != "" {
		if err := sys.SaveModel(o.savePath); err != nil {
			log.Error("save failed", "err", err)
			return 1
		}
		log.Info("model saved", "path", o.savePath)
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
