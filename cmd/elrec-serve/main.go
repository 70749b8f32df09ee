// Command elrec-serve runs the EL-Rec serving front end: a replica-pooled,
// admission-controlled ranking service over a trained DLRM. Compressed
// Eff-TT tables keep the model small enough to replicate on every node, so
// the pool clones it -replicas ways and serves concurrent traffic with no
// shared mutable state.
//
// The binary either loads a model saved by `elrec-train -no-reorder -save`
// (pass -load with the same architecture flags) or, by default, trains a
// small model on a synthetic dataset at startup — enough for demos, smoke
// tests and load experiments without a checkpoint lying around.
//
// Usage:
//
//	elrec-serve -addr localhost:8080 -replicas 4
//	elrec-serve -load model.bin -dataset kaggle -dim 16 -rank 8
//
// Endpoints (JSON):
//
//	POST /score   {"dense":[...],"sparse":[...],"candidates":[...]}
//	              → {"scores":[...]}               calibrated CTR per candidate
//	POST /topk    same body plus "k"
//	              → {"items":[{"item":i,"score":s},...]} ranked top-k
//	POST /reload  {"path":"model.bin"} (empty body: the -load path)
//	              → {"version":n}       hot-swap a new checkpoint, zero drops
//	GET  /healthz process liveness (always 200 while the server runs)
//	GET  /readyz  200 when serving a stable model version, 503 mid-swap
//	GET  /metrics registry snapshot (serve_* instruments + model_version)
//	GET  /debug/pprof/  runtime profiles
//
// A continuously retraining trainer pairs with /reload: it checkpoints with
// `elrec-train -no-reorder -save` (or this binary's -save after startup
// training, which never reorders) and POSTs /reload; the pool rebuilds every
// replica from the checkpoint bytes and swaps them in at micro-batch
// boundaries, so serving never aliases trainer memory and no request is
// dropped.
//
// Overload sheds with 503 (queue full), expired requests with 504; send
// "timeout_ms" in the body to override the default per-request deadline.
// SIGINT/SIGTERM drains gracefully: admission stops, queued requests finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	elrec "repro"
	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/obs"
	"repro/internal/served"
	"repro/internal/tensor"
	"repro/internal/tt"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address (use :0 for an ephemeral port)")
		replicas  = flag.Int("replicas", 4, "model replicas (concurrent scoring workers)")
		queue     = flag.Int("queue", 256, "admission queue depth; a full queue sheds with 503")
		coalesce  = flag.Int("coalesce", 8, "max requests merged into one micro-batch")
		timeoutMS = flag.Int("timeout-ms", 0, "default per-request deadline in milliseconds (0: none)")
		itemFeat  = flag.Int("item-feature", -1, "sparse feature carrying the candidate item id (-1: largest table)")
		scoreBat  = flag.Int("score-batch", 64, "rows per scoring forward pass")

		dataset      = flag.String("dataset", "terabyte", "dataset preset: avazu, kaggle or terabyte")
		datasetScale = flag.Float64("dataset-scale", 0.002, "dataset cardinality multiplier")
		steps        = flag.Int("steps", 200, "startup training steps (ignored with -load)")
		batch        = flag.Int("batch", 256, "startup training batch size")
		dim          = flag.Int("dim", 16, "embedding dimension")
		rank         = flag.Int("rank", 8, "TT rank")
		lr           = flag.Float64("lr", 1.0, "learning rate for startup training")
		ttThreshold  = flag.Int("tt-threshold", 10_000, "min rows for TT compression (-1 disables)")
		loadPath     = flag.String("load", "", "load model weights saved by elrec-train -no-reorder -save instead of training")
		savePath     = flag.String("save", "", "save the startup-trained model to this checkpoint (ignored with -load)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
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

	// The factory rebuilds the serving architecture from flags; every
	// checkpoint load (-load at startup, POST /reload afterwards)
	// materializes into a fresh skeleton it returns, so the pool never
	// aliases another process's (or the startup trainer's) memory.
	factory := func() (*dlrm.Model, error) {
		return buildModel(spec, *dim, *rank, *ttThreshold, float32(*lr))
	}
	item := *itemFeat
	if item < 0 {
		item = largestFeature(spec)
	}
	reg := obs.NewRegistry()
	opts := served.Options{
		Replicas:    *replicas,
		QueueDepth:  *queue,
		MaxCoalesce: *coalesce,
		Timeout:     time.Duration(*timeoutMS) * time.Millisecond,
		Metrics:     reg,
		Factory:     factory,
	}

	var pool *served.Pool
	if *loadPath != "" {
		pool, err = served.NewFromCheckpoint(*loadPath, item, *scoreBat, opts)
		if err != nil {
			log.Error("load failed", "path", *loadPath, "err", err)
			return 1
		}
		log.Info("model loaded", "path", *loadPath)
	} else {
		model, err := factory()
		if err != nil {
			log.Error("model build failed", "err", err)
			return 1
		}
		d, err := data.New(spec)
		if err != nil {
			log.Error("dataset failed", "err", err)
			return 1
		}
		start := time.Now()
		var loss float32
		for it := 0; it < *steps; it++ {
			loss = model.TrainStep(d.Batch(it, *batch))
		}
		log.Info("startup training done", "steps", *steps, "final_loss", loss,
			"elapsed", time.Since(start).Round(time.Millisecond))
		if *savePath != "" {
			if err := elrec.SaveModel(*savePath, model); err != nil {
				log.Error("save failed", "path", *savePath, "err", err)
				return 1
			}
			log.Info("model saved", "path", *savePath)
		}
		log.Info("serving model", "dataset", spec.Name, "tables", len(model.Tables),
			"item_feature", item, "embedding_mb", float64(model.EmbeddingBytes())/1e6)
		pool, err = served.New(model, item, *scoreBat, opts)
		if err != nil {
			log.Error("pool build failed", "err", err)
			return 1
		}
	}

	mux := http.NewServeMux()
	api := pool.Handler()
	mux.Handle("/score", api)
	mux.Handle("/topk", api)
	mux.Handle("/reload", api)
	mux.Handle("/healthz", api)
	mux.Handle("/readyz", api)
	mux.Handle("/", obs.Handler(reg, nil))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Info("serving", "addr", ln.Addr().String(), "replicas", pool.Replicas(),
		"queue", *queue, "coalesce", *coalesce, "kernels", tensor.KernelName())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("draining", "signal", s.String())
	case err := <-errc:
		log.Error("server failed", "err", err)
		pool.Close()
		return 1
	}
	// Graceful shutdown, bounded: admission stops immediately, in-flight
	// HTTP requests get a few seconds to finish, stragglers are cut. The
	// pool then drains whatever was already admitted.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		_ = srv.Close()
	}
	cancel()
	pool.Close()
	snap := reg.Snapshot()
	log.Info("drained", "requests", snap.Counter("serve_requests"),
		"errors", snap.Counter("serve_errors"),
		"shed_overload", snap.Counter("serve_shed_overload"),
		"shed_deadline", snap.Counter("serve_shed_deadline"))
	return 0
}

// buildModel constructs the DLRM skeleton for spec (tables + towers) without
// training it.
func buildModel(spec data.Spec, dim, rank, ttThreshold int, lr float32) (*dlrm.Model, error) {
	tables, _, err := dlrm.BuildTables(spec.TableRows, dlrm.TableSpec{
		Dim: dim, Rank: rank, TTThreshold: ttThreshold, Opts: tt.EffOptions(), Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := dlrm.DefaultConfig(spec.NumDense, dim)
	cfg.LR = lr
	cfg.Seed = spec.Seed + 1
	return dlrm.NewModel(cfg, tables)
}

// largestFeature picks the highest-cardinality sparse feature as the item
// feature — the candidate-item table in every preset. Decided from the
// dataset spec, not a model instance, because the pool may rebuild its model
// from checkpoints the binary never holds directly.
func largestFeature(spec data.Spec) int {
	best := 0
	for i, rows := range spec.TableRows {
		if rows > spec.TableRows[best] {
			best = i
		}
	}
	return best
}
