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
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	elrec "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/served"
	"repro/internal/tensor"
)

func main() {
	os.Exit(run())
}

// Rows per scoring forward pass and requests merged into one micro-batch.
const (
	scoreBatch = 64
	coalesce   = 8
)

// options is elrec-serve's command line, defined on a flag set by newOptions.
type options struct {
	spec                       core.RunSpec
	addr, load, save           string
	replicas, queue, timeoutMS int
	logLevel                   slog.Level
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{spec: core.DefaultRunSpec()}
	o.spec.RegisterFlags(fs)
	fs.StringVar(&o.addr, "addr", "localhost:8080", "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&o.replicas, "replicas", 4, "model replicas (concurrent scoring workers)")
	fs.IntVar(&o.queue, "queue", 256, "admission queue depth; a full queue sheds with 503")
	fs.IntVar(&o.timeoutMS, "timeout-ms", 0, "default per-request deadline in milliseconds (0: none)")
	fs.StringVar(&o.load, "load", "", "load model weights saved by elrec-train -no-reorder -save instead of training")
	fs.StringVar(&o.save, "save", "", "save the startup-trained model to this checkpoint (ignored with -load)")
	fs.TextVar(&o.logLevel, "log-level", slog.LevelInfo, "log level: debug, info, warn or error")
	return o
}

func run() int {
	o := newOptions(flag.CommandLine)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))

	spec, err := o.spec.Validate()
	if err != nil {
		log.Error("invalid flags", "err", err)
		return 2
	}
	log.Info("run spec", "spec", o.spec.JSON())

	item := o.spec.ItemFeature()
	reg := obs.NewRegistry()
	opts := served.Options{
		Replicas:    o.replicas,
		QueueDepth:  o.queue,
		MaxCoalesce: coalesce,
		Timeout:     time.Duration(o.timeoutMS) * time.Millisecond,
		Metrics:     reg,
		// Every checkpoint load (-load at startup, POST /reload afterwards)
		// materializes into a fresh skeleton built from the flags, so the
		// pool never aliases another process's (or the startup trainer's)
		// memory.
		Factory: o.spec.Model,
	}

	var pool *served.Pool
	if o.load != "" {
		pool, err = served.NewFromCheckpoint(o.load, item, scoreBatch, opts)
		if err != nil {
			log.Error("load failed", "path", o.load, "err", err)
			return 1
		}
		log.Info("model loaded", "path", o.load)
	} else {
		model, err := o.spec.Model()
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
		var b *data.Batch // one batch, regenerated in place every step
		for it := 0; it < o.spec.Steps; it++ {
			b = d.BatchInto(b, it, o.spec.Batch)
			loss = model.TrainStep(b)
		}
		log.Info("startup training done", "steps", o.spec.Steps, "final_loss", loss,
			"elapsed", time.Since(start).Round(time.Millisecond))
		if o.save != "" {
			if err := elrec.SaveModel(o.save, model); err != nil {
				log.Error("save failed", "path", o.save, "err", err)
				return 1
			}
			log.Info("model saved", "path", o.save)
		}
		log.Info("serving model", "dataset", spec.Name, "tables", len(model.Tables),
			"item_feature", item, "embedding_mb", float64(model.EmbeddingBytes())/1e6)
		pool, err = served.New(model, item, scoreBatch, opts)
		if err != nil {
			log.Error("pool build failed", "err", err)
			return 1
		}
		// The trainer's batch-sized scratch (tens of MB at -batch 2048) is
		// unreachable now that the replicas hold their own. Collect it
		// before serving: otherwise serving's first heap goal is twice
		// whatever the last start-up cycle saw live, which is the trainer or
		// not depending on where that cycle happened to fall, and the
		// server's peak RSS takes one of two values from run to run.
		runtime.GC()
	}

	mux := http.NewServeMux()
	api := pool.Handler()
	mux.Handle("/score", api)
	mux.Handle("/topk", api)
	mux.Handle("/reload", api)
	mux.Handle("/healthz", api)
	mux.Handle("/readyz", api)
	mux.Handle("/", obs.Handler(reg, nil))

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Error("listen failed", "addr", o.addr, "err", err)
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
		"queue", o.queue, "coalesce", coalesce, "kernels", tensor.KernelName())

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
