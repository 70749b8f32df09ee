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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/distps"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/tensor"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id       = flag.Uint64("id", 1, "worker id (nonzero; distinct per worker)")
		shardCSV = flag.String("shards", "localhost:7070", "comma-separated PS shard addresses, in shard-id order")
		refMode  = flag.Bool("reference", false, "train single-process (no cluster) and print the reference hash")

		dataset      = flag.String("dataset", "kaggle", "dataset preset: avazu, kaggle or terabyte")
		datasetScale = flag.Float64("dataset-scale", 0.001, "dataset cardinality multiplier")
		dim          = flag.Int("dim", 16, "embedding dimension")
		rank         = flag.Int("rank", 8, "TT rank (device tables)")
		lr           = flag.Float64("lr", 0.5, "learning rate")
		ttThreshold  = flag.Int("tt-threshold", 10_000, "min rows for device TT compression; smaller tables live on the PS")
		queueDepth   = flag.Int("queue", 4, "pipeline pre-fetch queue depth")

		steps = flag.Int("steps", 200, "total training iterations")
		batch = flag.Int("batch", 64, "batch size")

		ckptPath  = flag.String("checkpoint", "", "worker checkpoint file (enables coordinated checkpoints)")
		ckptEvery = flag.Int("checkpoint-every", 0, "coordinated checkpoint interval in steps (0 disables)")

		leaseTTL   = flag.Duration("lease-ttl", 3*time.Second, "trainer lease duration")
		rpcTimeout = flag.Duration("rpc-timeout", 5*time.Second, "per-RPC deadline")
		hbEvery    = flag.Duration("heartbeat-every", time.Second, "shard liveness probe period (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "debug endpoint address (/metrics, /trace, /cluster, /cluster/trace, /healthz, /readyz, pprof); empty disables")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	log := obs.NewLogger(os.Stderr, level, nil)

	if *steps < 0 || *batch <= 0 {
		log.Error("invalid flags", "err", fmt.Errorf("-steps %d -batch %d: steps must not be negative, batch must be positive", *steps, *batch))
		return 2
	}
	sc, err := distps.NewScenario(*dataset, *datasetScale, *dim, *rank, *ttThreshold, *lr, *queueDepth)
	if err != nil {
		log.Error("invalid scenario flags", "err", err)
		return 2
	}
	src, err := data.New(sc.Spec)
	if err != nil {
		log.Error("dataset build failed", "err", err)
		return 1
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(nil)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *refMode {
		// No cluster to aggregate in reference mode: a plain debug endpoint.
		if *debugAddr != "" {
			dbg, derr := obs.Serve(*debugAddr, reg, tracer)
			if derr != nil {
				log.Error("debug endpoint failed", "err", derr)
				return 1
			}
			log.Info("debug endpoint up", "addr", dbg.Addr())
			defer dbg.Shutdown(time.Second)
		}
		return runReference(ctx, sc, src, *steps, *batch, reg, tracer, log)
	}
	return runDistributed(ctx, sc, src, workerFlags{
		id: *id, shards: splitAddrs(*shardCSV), steps: *steps, batch: *batch,
		ckptPath: *ckptPath, ckptEvery: *ckptEvery,
		leaseTTL: *leaseTTL, rpcTimeout: *rpcTimeout, hbEvery: *hbEvery,
		debugAddr: *debugAddr,
	}, reg, tracer, log)
}

type workerFlags struct {
	id           uint64
	shards       []string
	steps, batch int
	ckptPath     string
	ckptEvery    int
	leaseTTL     time.Duration
	rpcTimeout   time.Duration
	hbEvery      time.Duration
	debugAddr    string
}

func splitAddrs(csv string) []string {
	var out []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runReference trains the identical scenario in one process — the oracle.
func runReference(ctx context.Context, sc distps.Scenario, src *data.Dataset,
	steps, batch int, reg *obs.Registry, tracer *obs.Tracer, log *obs.Logger) int {
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
	printResult(hash, res.Curve.Losses, res.Completed, 0)
	return 0
}

// runDistributed trains against the shard cluster via the recovery loop.
// The debug endpoint starts after the worker exists: the /cluster and
// /cluster/trace routes aggregate over the worker's shard client.
func runDistributed(ctx context.Context, sc distps.Scenario, src *data.Dataset,
	f workerFlags, reg *obs.Registry, tracer *obs.Tracer, log *obs.Logger) int {
	w, err := distps.NewWorker(distps.WorkerConfig{
		ID: f.id, Shards: f.shards, Scenario: sc,
		CheckpointPath: f.ckptPath, CheckpointEvery: f.ckptEvery,
		LeaseTTL: f.leaseTTL, HeartbeatEvery: f.hbEvery, RPCTimeout: f.rpcTimeout,
		Metrics: reg, Trace: tracer, Log: log,
	})
	if err != nil {
		log.Error("worker build failed", "err", err)
		return 1
	}
	defer w.Close()
	if f.debugAddr != "" {
		dbg, derr := obs.ServeWith(f.debugAddr, reg, tracer,
			distps.ClusterHandlers(w, reg, tracer, f.rpcTimeout))
		if derr != nil {
			log.Error("debug endpoint failed", "err", derr)
			return 1
		}
		log.Info("debug endpoint up", "addr", dbg.Addr())
		defer dbg.Shutdown(time.Second)
	}
	start := time.Now()
	res, err := w.Run(ctx, src, f.steps, f.batch)
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
	printResult(hash, losses, res.Completed, res.Recoveries)
	return 0
}

// printResult emits the machine-greppable result line the CI smoke test
// compares across runs.
func printResult(hash uint64, losses []float64, completed, recoveries int) {
	loss := "n/a"
	if len(losses) > 0 {
		loss = fmt.Sprintf("%.9g", losses[len(losses)-1])
	}
	fmt.Printf("final_hash=%016x final_loss=%s completed=%d recoveries=%d\n",
		hash, loss, completed, recoveries)
}
