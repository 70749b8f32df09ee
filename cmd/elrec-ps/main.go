// Command elrec-ps runs one parameter-server shard of a distributed EL-Rec
// training cluster. The overflow embedding tables (those too small for TT
// compression) are partitioned across -shards shards by a consistent-hash
// ring; each shard owns its rows exclusively, checkpoints them durably in
// -dir, and fences stale trainers by lease epoch.
//
// Every participant — each shard and each worker — must be started with the
// same dataset and model flags: the scenario derived from them defines the
// table universe, the seeds, and therefore the bit-exact initial state.
// Shard 0 doubles as the trainer-lease authority.
//
// Usage (a two-shard cluster):
//
//	elrec-ps -id 0 -shards 2 -addr localhost:7070 -dir /tmp/shard0
//	elrec-ps -id 1 -shards 2 -addr localhost:7071 -dir /tmp/shard1
//
// SIGINT/SIGTERM drains gracefully: in-flight requests finish (bounded by
// -drain-timeout), then the listener closes. Durable state — versioned
// checkpoints and the fencing-epoch file — survives any exit, including
// SIGKILL: a restarted shard rejoins unrestored and waits for the trainer
// to roll it back to the last coordinated checkpoint.
package main

import (
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/distps"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

// options is elrec-ps's command line, defined on a flag set by newOptions.
// The run spec's -steps and -batch are accepted for parity with
// elrec-worker; a shard does not read them.
type options struct {
	spec                   core.RunSpec
	id, shards             int
	addr, dir, debugAddr   string
	leaseTTL, drainTimeout time.Duration
	logLevel               slog.Level
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{spec: core.DefaultRunSpec()}
	o.spec.Dataset, o.spec.DatasetScale, o.spec.LR, o.spec.Batch = "kaggle", 0.001, 0.5, 64
	o.spec.RegisterFlags(fs)
	fs.IntVar(&o.id, "id", 0, "this shard's index in [0, shards)")
	fs.IntVar(&o.shards, "shards", 1, "total number of PS shards")
	fs.StringVar(&o.addr, "addr", "localhost:7070", "listen address (use :0 for an ephemeral port)")
	fs.StringVar(&o.dir, "dir", "", "durable state directory (checkpoints + fencing epoch); required")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 3*time.Second, "default trainer-lease duration")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "max wait for in-flight requests on shutdown")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug endpoint address (/metrics, /trace, /healthz, /readyz, pprof); empty disables")
	fs.TextVar(&o.logLevel, "log-level", slog.LevelInfo, "log level: debug, info, warn or error")
	return o
}

func run() int {
	o := newOptions(flag.CommandLine)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.logLevel}))
	if o.dir == "" {
		log.Error("missing -dir: a shard needs a durable state directory")
		return 2
	}

	sc, err := distps.NewScenario(o.spec, 0) // a shard never reads the queue depth
	if err != nil {
		log.Error("invalid flags", "err", err)
		return 2
	}
	log.Info("run spec", "spec", o.spec.JSON())

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(nil)
	// Shard span ids live in a per-shard id space so a merged cluster trace
	// never collides them with the worker's (base 0) or another shard's.
	tracer.SetSpanIDBase(uint64(o.id+1) << 48)
	cfg := sc.ShardConfig(o.id, o.shards, o.dir)
	cfg.LeaseTTL = o.leaseTTL
	cfg.DrainTimeout = o.drainTimeout
	cfg.Metrics = reg
	cfg.Trace = tracer
	cfg.Log = log
	shard, err := distps.NewShard(cfg)
	if err != nil {
		log.Error("shard boot failed", "err", err)
		return 1
	}

	var dbg *obs.DebugServer
	if o.debugAddr != "" {
		dbg, err = obs.ServeWith(o.debugAddr, reg, tracer, distps.ShardHandlers(shard))
		if err != nil {
			log.Error("debug endpoint failed", "err", err)
			return 1
		}
		log.Info("debug endpoint up", "addr", dbg.Addr())
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Error("listen failed", "addr", o.addr, "err", err)
		return 1
	}
	errc := make(chan error, 1)
	go func() { errc <- shard.Serve(ln) }()
	log.Info("shard serving", "id", o.id, "shards", o.shards, "addr", ln.Addr().String(),
		"tables", len(sc.HostSpecs()), "version", shard.Version(), "restored", shard.Restored())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("draining", "signal", s.String())
	case err := <-errc:
		log.Error("shard serve failed", "err", err)
		_ = shard.Close()
		_ = dbg.Shutdown(time.Second)
		return 1
	}
	if err := shard.Close(); err != nil {
		log.Warn("drain incomplete", "err", err)
	}
	_ = dbg.Shutdown(time.Second)
	log.Info("shard stopped", "id", o.id, "version", shard.Version())
	return 0
}
