// Command elrec-worker runs the trainer side of a distributed EL-Rec
// cluster: the DLRM towers and TT-compressed tables train locally while the
// sharded overflow tables live on elrec-ps shards, reached through the
// batched gather/push pipeline. The worker acquires the trainer lease from
// shard 0, checkpoints the cluster coordinately every -checkpoint-every
// steps, and rides out shard failures by rolling everyone back to the last
// committed version.
//
// Start it with the SAME dataset and model flags as every elrec-ps shard;
// the shared scenario is what makes a distributed run bit-identical to the
// single-process reference:
//
//	elrec-worker -id 1 -shards localhost:7070,localhost:7071 \
//	    -steps 200 -checkpoint /tmp/worker.ckpt -checkpoint-every 50
//
// Pass -reference to skip the cluster entirely and train the identical
// scenario in-process — the oracle a distributed run's final_hash is
// compared against. On exit the worker prints machine-greppable results:
//
//	final_hash=<16 hex digits> final_loss=<float> completed=<n> recoveries=<n>
//
// A second worker started with a different -id is a hot standby: it parks
// on the lease and takes over (fencing the old epoch, restoring the shared
// checkpoint) if the active trainer dies. SIGINT/SIGTERM drains the
// in-flight batch and exits resumably.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/distps"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/tensor"
)

func main() {
	os.Exit(run(flag.CommandLine, os.Args[1:], os.Stdout))
}

// options is elrec-worker's command line, defined on a flag set by newOptions.
type options struct {
	spec                 core.RunSpec
	id                   uint64
	shards               string
	reference            bool
	queue, ckptEvery     int
	ckptPath, debugAddr  string
	leaseTTL, rpcTimeout time.Duration
	logLevel             slog.Level
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{spec: core.DefaultRunSpec()}
	o.spec.Dataset, o.spec.DatasetScale, o.spec.LR, o.spec.Batch = "kaggle", 0.001, 0.5, 64
	o.spec.RegisterFlags(fs)
	fs.Uint64Var(&o.id, "id", 1, "worker id (nonzero; distinct per worker)")
	fs.StringVar(&o.shards, "shards", "localhost:7070", "comma-separated PS shard addresses, in shard-id order")
	fs.BoolVar(&o.reference, "reference", false, "train single-process (no cluster) and print the reference hash")
	fs.IntVar(&o.queue, "queue", 4, "pipeline pre-fetch queue depth")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "worker checkpoint file (enables coordinated checkpoints)")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "coordinated checkpoint interval in steps (0 disables)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 3*time.Second, "trainer lease duration")
	fs.DurationVar(&o.rpcTimeout, "rpc-timeout", 5*time.Second, "per-RPC deadline")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug endpoint address (/metrics, /trace, /cluster, /cluster/trace, /healthz, /readyz, pprof); empty disables")
	fs.TextVar(&o.logLevel, "log-level", slog.LevelInfo, "log level: debug, info, warn or error")
	return o
}

// run is elrec-worker on args, parsed on fs; the result line goes to stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) int {
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))

	sc, err := distps.NewScenario(o.spec, o.queue)
	if err != nil {
		log.Error("invalid flags", "err", err)
		return 2
	}
	log.Info("run spec", "spec", o.spec.JSON())
	src, err := data.New(sc.Spec)
	if err != nil {
		log.Error("dataset build failed", "err", err)
		return 1
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(nil)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.reference {
		// No cluster to aggregate in reference mode: a plain debug endpoint.
		if o.debugAddr != "" {
			dbg, derr := obs.Serve(o.debugAddr, reg, tracer, nil, nil)
			if derr != nil {
				log.Error("debug endpoint failed", "err", derr)
				return 1
			}
			log.Info("debug endpoint up", "addr", dbg.Addr())
			defer dbg.Shutdown(time.Second)
		}
		return runReference(ctx, sc, src, o.spec.Steps, o.spec.Batch, reg, tracer, log, stdout)
	}
	return runDistributed(ctx, sc, src, o, reg, tracer, log, stdout)
}

// runReference trains the identical scenario in one process — the oracle.
func runReference(ctx context.Context, sc distps.Scenario, src *data.Dataset,
	steps, batch int, reg *obs.Registry, tracer *obs.Tracer, log *slog.Logger, stdout io.Writer) int {
	locs, err := sc.ReferenceLocs()
	if err != nil {
		log.Error("reference placement failed", "err", err)
		return 1
	}
	cfg := sc.PipelineConfig()
	cfg.Metrics = reg
	cfg.Trace = tracer
	p, err := ps.NewPipeline(cfg, locs)
	if err != nil {
		log.Error("reference pipeline failed", "err", err)
		return 1
	}
	start := time.Now()
	res, err := p.Train(ctx, src, 0, steps, batch)
	if err != nil {
		log.Error("reference training failed", "err", err)
		return 1
	}
	specs := sc.HostSpecs()
	values := make([]*tensor.Matrix, len(specs))
	for h := range specs {
		values[h] = p.HostBag(h).Weights
	}
	hash, err := distps.HashState(p, specs, values)
	if err != nil {
		log.Error("state hash failed", "err", err)
		return 1
	}
	log.Info("reference run done", "steps", res.Completed,
		"elapsed", time.Since(start).Round(time.Millisecond))
	printResult(stdout, hash, res.Curve.Losses, res.Completed, 0)
	return 0
}

// runDistributed trains against the shard cluster via the recovery loop.
// The debug endpoint starts after the worker exists: the /cluster and
// /cluster/trace routes aggregate over the worker's shard client.
func runDistributed(ctx context.Context, sc distps.Scenario, src *data.Dataset,
	o *options, reg *obs.Registry, tracer *obs.Tracer, log *slog.Logger, stdout io.Writer) int {
	shards := strings.FieldsFunc(o.shards, func(r rune) bool { return r == ',' || r == ' ' })
	w, err := distps.NewWorker(distps.WorkerConfig{
		ID: o.id, Shards: shards, Scenario: sc,
		Checkpoint: ps.CheckpointConfig{Path: o.ckptPath, Every: o.ckptEvery}, LeaseTTL: o.leaseTTL,
		RPCTimeout: o.rpcTimeout,
		Metrics:    reg, Trace: tracer, Log: log,
	})
	if err != nil {
		log.Error("worker build failed", "err", err)
		return 1
	}
	defer w.Close()
	if o.debugAddr != "" {
		dbg, derr := obs.Serve(o.debugAddr, reg, tracer, w.Active,
			distps.ClusterHandlers(w, reg, tracer, o.rpcTimeout))
		if derr != nil {
			log.Error("debug endpoint failed", "err", derr)
			return 1
		}
		log.Info("debug endpoint up", "addr", dbg.Addr())
		defer dbg.Shutdown(time.Second)
	}
	start := time.Now()
	res, err := w.Run(ctx, src, o.spec.Steps, o.spec.Batch)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// SIGINT/SIGTERM: the in-flight batch drained and (with
			// -checkpoint) the last coordinated version is on disk —
			// restarting the worker resumes bit-exactly.
			log.Info("interrupted; state is resumable", "next_iter", res.NextIter,
				"completed", res.Completed, "recoveries", res.Recoveries)
			return 0
		}
		log.Error("distributed training failed", "err", err,
			"completed", res.Completed, "recoveries", res.Recoveries)
		return 1
	}
	specs := sc.HostSpecs()
	values := make([]*tensor.Matrix, len(specs))
	for h, spec := range specs {
		m, gerr := distps.GatherFullTable(w.Client().Store(context.Background(), spec), spec)
		if gerr != nil {
			log.Error("final gather failed", "table", spec.Index, "err", gerr)
			return 1
		}
		values[h] = m
	}
	hash, err := distps.HashState(w.Pipeline(), specs, values)
	if err != nil {
		log.Error("state hash failed", "err", err)
		return 1
	}
	log.Info("distributed run done", "steps", res.Completed, "recoveries", res.Recoveries,
		"elapsed", time.Since(start).Round(time.Millisecond))
	var losses []float64
	if res.Curve != nil {
		losses = res.Curve.Losses
	}
	printResult(stdout, hash, losses, res.Completed, res.Recoveries)
	return 0
}

// printResult emits the machine-greppable result line the CI smoke test
// compares across runs.
func printResult(w io.Writer, hash uint64, losses []float64, completed, recoveries int) {
	loss := "n/a"
	if len(losses) > 0 {
		loss = fmt.Sprintf("%.9g", losses[len(losses)-1])
	}
	fmt.Fprintf(w, "final_hash=%016x final_loss=%s completed=%d recoveries=%d\n",
		hash, loss, completed, recoveries)
}
