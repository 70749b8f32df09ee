package distps

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ps"
)

const (
	// maxRecoveries bounds consecutive failed recovery rounds before Run
	// gives up. Waiting for the trainer lease does not count — a standby
	// worker blocks on the lease indefinitely by design.
	maxRecoveries = 8
	// standbyPoll is the wait between a standby worker's lease attempts.
	standbyPoll = 100 * time.Millisecond
)

// WorkerConfig configures a trainer worker.
type WorkerConfig struct {
	// ID identifies this worker to the lease authority; must be nonzero
	// (zero is the "no holder" value).
	ID       uint64
	Shards   []string
	Scenario Scenario

	// Checkpoint enables coordinated checkpoints: every Every iterations
	// the shards commit the version first, then the local file at Path is
	// written (the commit point). Its Coordinate, when set, runs on the
	// training goroutine between the two, right after the shards committed
	// version nextIter; fault tests use it to kill and restart shards at an
	// exactly reproducible point in the protocol, and an error aborts the
	// checkpoint.
	Checkpoint ps.CheckpointConfig

	LeaseTTL time.Duration // trainer lease duration (0: shard default); renewed every LeaseTTL/3, at least 10ms apart

	RPCTimeout time.Duration
	Retry      ps.RetryPolicy // transport retries and recovery-round waits

	// Sleep overrides the recovery and standby waits and the pipeline's
	// gather/apply backoff, which otherwise runs ps.defaultRetryPolicy
	// (tests make them instant).
	Sleep func(time.Duration)

	Metrics *obs.Registry
	Trace   *obs.Tracer
	Log     *slog.Logger // nil = silent
}

// RunResult summarizes a Run: the loss curve of the final training round,
// total completed iterations across rounds, and how many recoveries the
// run needed.
type RunResult struct {
	Curve      *metrics.LossCurve
	Completed  int
	NextIter   int
	Recoveries int
}

type workerMetrics struct {
	steps      *obs.Counter
	recoveries *obs.Counter
	active     *obs.Gauge
	epoch      *obs.Gauge
}

// Worker drives distributed training: it acquires the trainer lease,
// restores every shard to the last coordinated checkpoint, and runs the
// ps.Pipeline with the shard set as the host-table backing store. Any
// failure — a dead shard, a torn push, a lost lease — sends it through the
// recovery loop: re-acquire the lease (bumping the fencing epoch), rebuild
// the pipeline, roll every shard back to the checkpoint, resume. Because
// the checkpoint is a drain-point snapshot and pushes are deduplicated,
// the recovered run is bit-identical to one that never failed.
type Worker struct {
	cfg      WorkerConfig
	client   *Client
	pipeline *ps.Pipeline // latest built; read after Run returns (or from hooks on the Run goroutine)
	m        workerMetrics
	active   atomic.Bool // true while holding the lease and training
}

// Active reports whether the worker currently holds the trainer lease and
// is inside a training round; /readyz exposes it.
func (w *Worker) Active() bool { return w.active.Load() }

// NewWorker validates cfg and builds the (lazily connecting) client.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == 0 {
		return nil, fmt.Errorf("%w: worker id must be nonzero", errBadRequest)
	}
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("%w: no shard addresses", errBadRequest)
	}
	if len(cfg.Scenario.HostSpecs()) == 0 {
		return nil, fmt.Errorf("%w: scenario places no tables on the parameter server", errBadRequest)
	}
	if ck := cfg.Checkpoint; ck.Every < 0 || (ck.Every > 0 && ck.Path == "") {
		return nil, fmt.Errorf("%w: checkpoint interval %d without a path", errBadRequest, ck.Every)
	}
	ccfg := cfg.Scenario.clientConfig(cfg.ID, cfg.Shards)
	ccfg.Timeout = cfg.RPCTimeout
	ccfg.LeaseTTL = cfg.LeaseTTL
	ccfg.Retry = cfg.Retry
	ccfg.Metrics = cfg.Metrics
	ccfg.Trace = cfg.Trace
	cfg.Log = orDiscard(cfg.Log)
	ccfg.Log = cfg.Log
	client, err := newClient(ccfg)
	if err != nil {
		return nil, err
	}
	w := &Worker{cfg: cfg, client: client}
	r := cfg.Metrics
	w.m = workerMetrics{
		steps:      r.Counter("distps_worker_steps"),
		recoveries: r.Counter("distps_worker_recoveries"),
		active:     r.Gauge("distps_worker_active"),
		epoch:      r.Gauge("distps_worker_epoch"),
	}
	return w, nil
}

// Client exposes the shard-set client (observers, tests).
func (w *Worker) Client() *Client { return w.client }

// Pipeline returns the most recently built pipeline. Valid once Run has
// returned; the final parameters live here.
func (w *Worker) Pipeline() *ps.Pipeline { return w.pipeline }

// Close releases the client.
func (w *Worker) Close() error { return w.client.Close() }

func (w *Worker) sleep(d time.Duration) {
	if w.cfg.Sleep != nil {
		w.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

// buildPipeline assembles a fresh trainer wired to the shard set. Each
// recovery round builds a new one: caches, adapters and queue state from a
// torn round must not leak into the restored run.
func (w *Worker) buildPipeline(ctx context.Context) (*ps.Pipeline, error) {
	locs, err := w.cfg.Scenario.remoteLocs(ctx, w.client)
	if err != nil {
		return nil, err
	}
	pcfg := w.cfg.Scenario.PipelineConfig()
	pcfg.Retry = ps.RetryPolicy{Sleep: w.cfg.Sleep}
	pcfg.Metrics = w.cfg.Metrics
	pcfg.Trace = w.cfg.Trace
	if ck := w.cfg.Checkpoint; ck.Every > 0 {
		pcfg.Checkpoint = ps.CheckpointConfig{
			Path:  ck.Path,
			Every: ck.Every,
			Coordinate: func(nextIter int) error {
				if err := w.client.checkpointAll(ctx, int64(nextIter)); err != nil {
					return err
				}
				if ck.Coordinate != nil {
					return ck.Coordinate(nextIter)
				}
				return nil
			},
		}
	}
	return ps.NewPipeline(pcfg, locs)
}

// startRenewal keeps the trainer lease alive while training runs. Renewal
// failures are only logged: if the lease is truly lost, epoch fencing on
// the shards is what protects the data, and the trainer finds out through
// its next fenced RPC. A panic in the renewal goroutine ends renewal the
// same way: spawn logs it, and the lease lapses under the same fencing.
func (w *Worker) startRenewal(ctx context.Context) func() {
	ttl := w.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	every := max(ttl/3, 10*time.Millisecond)
	stop := make(chan struct{})
	done := make(chan struct{})
	spawn(w.cfg.Log, "lease renewal", func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := w.client.renewLease(ctx); err != nil {
					w.cfg.Log.Warn("distps: lease renewal failed", "worker", w.cfg.ID, "err", err)
				}
			}
		}
	}, "worker", w.cfg.ID)
	return func() { close(stop); <-done }
}

// loadLocalVersion reads the worker's checkpoint into p, returning the
// next iteration (0 when no checkpoint exists yet).
func (w *Worker) loadLocalVersion(p *ps.Pipeline) (int, error) {
	path := w.cfg.Checkpoint.Path
	if path == "" {
		return 0, nil
	}
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	return p.LoadCheckpoint(path)
}

// Run trains `steps` total iterations of batch-size `batch` from src,
// riding out shard failures via the recovery loop. It returns when the
// global iteration count reaches steps, when ctx is cancelled (graceful:
// the in-flight batch drains), or when recovery stops making progress.
func (w *Worker) Run(ctx context.Context, src ps.BatchSource, steps, batch int) (*RunResult, error) {
	res := &RunResult{}
	recoveries := 0 // consecutive failed rounds; reset on progress
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// Phase 1: become the trainer. A standby worker parks here until
		// the active worker's lease lapses.
		epoch, err := w.client.acquireLease(ctx)
		if err != nil {
			if !errors.Is(err, errLeaseHeld) {
				w.cfg.Log.Warn("distps: lease acquisition failed", "worker", w.cfg.ID, "err", err)
			}
			w.sleep(standbyPoll)
			continue
		}
		w.m.epoch.Set(float64(epoch))
		w.cfg.Log.Info("distps: trainer lease acquired", "worker", w.cfg.ID, "epoch", epoch)

		// Phase 2: converge the cluster onto the last coordinated
		// checkpoint — fresh pipeline, local state file, every shard
		// restored to the same version (rolling back any shard that ran
		// ahead before a crash tore the previous round).
		fail := func(stage string, err error) bool {
			recoveries++
			res.Recoveries++
			w.m.recoveries.Inc()
			w.cfg.Log.Warn("distps: recovery round failed", "worker", w.cfg.ID, "stage", stage, "attempt", recoveries, "err", err)
			return recoveries <= maxRecoveries
		}
		if err := w.client.helloAll(ctx); err != nil {
			if !fail("hello", err) {
				return res, err
			}
			w.sleep(w.client.retry.Delay(recoveries))
			continue
		}
		p, err := w.buildPipeline(ctx)
		if err != nil {
			return res, err // configuration error; retrying cannot help
		}
		w.pipeline = p
		v, err := w.loadLocalVersion(p)
		if err != nil {
			return res, err // a corrupt local checkpoint needs the operator
		}
		if err := w.client.restoreAll(ctx, int64(v)); err != nil {
			if errors.Is(err, errFenced) {
				w.cfg.Log.Info("distps: fenced during restore; standing down", "worker", w.cfg.ID)
				continue
			}
			if !fail("restore", err) {
				return res, err
			}
			w.sleep(w.client.retry.Delay(recoveries))
			continue
		}
		res.NextIter = v
		if v >= steps {
			return res, nil // the checkpointed run already finished
		}

		// Phase 3: train.
		w.m.active.Set(1)
		w.active.Store(true)
		stopRenew := w.startRenewal(ctx)
		tres, terr := p.Train(ctx, src, v, steps-v, batch)
		stopRenew()
		w.active.Store(false)
		w.m.active.Set(0)
		w.m.steps.Add(int64(tres.Completed))
		res.Curve = tres.Curve
		res.Completed += tres.Completed
		res.NextIter = tres.NextIter
		if tres.Completed > 0 {
			recoveries = 0
		}
		if terr == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if errors.Is(terr, errFenced) {
			// Another worker out-fenced us: stand down to the lease loop
			// without counting a recovery — the cluster is healthy.
			w.cfg.Log.Info("distps: fenced during training; standing down", "worker", w.cfg.ID)
			continue
		}
		if !fail("train", terr) {
			return res, terr
		}
		w.sleep(w.client.retry.Delay(recoveries))
	}
}
