package distps

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/tensor"
)

// referencePipeline is the single-process run every distributed test is
// compared against: same Scenario, host tables in local memory.
func referencePipeline(t *testing.T, sc Scenario) *ps.Pipeline {
	t.Helper()
	locs, err := sc.ReferenceLocs()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ps.NewPipeline(sc.PipelineConfig(), locs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// referenceHash fingerprints a local-memory pipeline.
func referenceHash(t *testing.T, sc Scenario, p *ps.Pipeline) uint64 {
	t.Helper()
	specs := sc.HostSpecs()
	values := make([]*tensor.Matrix, len(specs))
	for h := range specs {
		values[h] = p.HostBag(h).Weights
	}
	h, err := HashState(p, specs, values)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// distributedHash fingerprints a remote-store pipeline by gathering every
// host row back from the shards through c.
func distributedHash(t *testing.T, sc Scenario, p *ps.Pipeline, c *Client) uint64 {
	t.Helper()
	specs := sc.HostSpecs()
	values := make([]*tensor.Matrix, len(specs))
	for h, spec := range specs {
		m, err := GatherFullTable(c.Store(context.Background(), spec), spec)
		if err != nil {
			t.Fatalf("gather table %d: %v", spec.Index, err)
		}
		values[h] = m
	}
	h, err := HashState(p, specs, values)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func testDataset(t *testing.T, sc Scenario) *data.Dataset {
	t.Helper()
	d, err := data.New(sc.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// bootShard starts one shard on addr ("127.0.0.1:0" for the first boot, the
// recorded address for a restart) and returns it with its resolved address.
// A non-nil drops decides which of the shard's responses are lost.
func bootShard(t *testing.T, sc Scenario, id, n int, dir, addr string, drops *dropSchedule) (*Shard, string) {
	t.Helper()
	cfg := sc.ShardConfig(id, n, dir)
	cfg.DrainTimeout = 50 * time.Millisecond
	cfg.Metrics = obs.NewRegistry()
	// Tracing rides along on every e2e scenario: the bit-exactness
	// assertions double as proof that telemetry never perturbs training.
	cfg.Trace = obs.NewTracer(nil)
	cfg.Trace.SetSpanIDBase(uint64(id+1) << 48)
	s, err := NewShard(cfg)
	if err != nil {
		t.Fatalf("NewShard(%d): %v", id, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %q: %v", addr, err)
	}
	var served net.Listener = ln
	if drops != nil {
		served = dropListener{Listener: ln, drops: drops}
	}
	serveShard(s, served)
	return s, ln.Addr().String()
}

// dropSchedule loses whole response frames: frame i (counted across every
// connection it is handed, restarts included) is dropped when a hash of
// (seed, i) falls below prob, until budget frames have been dropped. The
// hash makes the dropped indices a function of the seed alone.
type dropSchedule struct {
	seed   uint64
	prob   float64
	budget int

	mu      sync.Mutex
	frames  int // guarded by mu
	dropped int // guarded by mu
}

// drop reports whether the next frame is lost.
func (d *dropSchedule) drop() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := d.frames
	d.frames++
	if d.dropped >= d.budget || float64(tensor.Mix64(d.seed^uint64(i))>>11)/(1<<53) >= d.prob {
		return false
	}
	d.dropped++
	return true
}

// counts returns the frames seen and dropped so far.
func (d *dropSchedule) counts() (frames, dropped int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frames, d.dropped
}

// dropListener hands the shard connections whose writes pass through drops.
type dropListener struct {
	net.Listener
	drops *dropSchedule
}

func (l dropListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return dropConn{Conn: c, drops: l.drops}, nil
}

// dropConn loses a write by reporting it written. Shard.handleConn writes
// each response as one Write (writeFrame into a bufio.Writer it flushes),
// so a write is a whole frame: the client sees no reply, times out, redials
// and retries, and the shard's push dedup absorbs the replay.
type dropConn struct {
	net.Conn
	drops *dropSchedule
}

func (c dropConn) Write(p []byte) (int, error) {
	if c.drops.drop() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func instantSleep(time.Duration) {}

func testWorkerConfig(sc Scenario, id uint64, shards []string) WorkerConfig {
	return WorkerConfig{
		ID: id, Shards: shards, Scenario: sc,
		LeaseTTL:   time.Second,
		RPCTimeout: 2 * time.Second,
		Retry:      fastBackoff(),
		Sleep:      instantSleep,
		Metrics:    obs.NewRegistry(),
		Trace:      obs.NewTracer(nil),
	}
}

// TestDistributedMatchesReference is the fault-free baseline: one worker,
// two shards, and the final parameters must be bit-identical to the
// single-process pipeline (same scenario, host tables in local memory).
func TestDistributedMatchesReference(t *testing.T) {
	sc := testScenario()
	const steps, batch = 30, 16
	_, addrs := startShards(t, sc, 2, nil)
	src := testDataset(t, sc)

	w, err := NewWorker(testWorkerConfig(sc, 1, addrs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	res, err := w.Run(context.Background(), src, steps, batch)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != steps || res.Recoveries != 0 {
		t.Fatalf("completed %d steps with %d recoveries, want %d and 0", res.Completed, res.Recoveries, steps)
	}

	ref := referencePipeline(t, sc)
	rres, err := ref.Train(context.Background(), src, 0, steps, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range rres.Curve.Losses {
		if res.Curve.Losses[i] != l {
			t.Fatalf("loss diverges at step %d: %v vs %v", i, res.Curve.Losses[i], l)
		}
	}
	if got, want := distributedHash(t, sc, w.Pipeline(), w.Client()), referenceHash(t, sc, ref); got != want {
		t.Fatalf("final parameters diverge: distributed %016x, reference %016x", got, want)
	}
}

// TestShardKillRecoverySameWorker kills and restarts shard 1 right after
// the coordinated checkpoint commits version 20 (the exact point the
// checkpoint's Coordinate hook pins). The restarted shard refuses traffic
// until restored, so the worker's next gather fails; the recovery loop
// re-acquires the lease, rolls every shard back to version 20, and resumes
// — with a final state bit-identical to a run that never crashed.
func TestShardKillRecoverySameWorker(t *testing.T) {
	sc := testScenario()
	const steps, batch, every = 40, 16, 20
	dirs := []string{t.TempDir(), t.TempDir()}
	var mu sync.Mutex
	shards := make([]*Shard, 2)
	addrs := make([]string, 2)
	for i := range shards {
		shards[i], addrs[i] = bootShard(t, sc, i, 2, dirs[i], "127.0.0.1:0", nil)
	}
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range shards {
			s.Close()
		}
	})

	cfg := testWorkerConfig(sc, 1, addrs)
	cfg.Checkpoint = ps.CheckpointConfig{Path: filepath.Join(t.TempDir(), "worker.ckpt"), Every: every}
	killed := false
	cfg.Checkpoint.Coordinate = func(v int) error {
		if v != every || killed {
			return nil
		}
		killed = true
		mu.Lock()
		defer mu.Unlock()
		shards[1].Close()
		shards[1], _ = bootShard(t, sc, 1, 2, dirs[1], addrs[1], nil)
		return nil
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	src := testDataset(t, sc)
	res, err := w.Run(context.Background(), src, steps, batch)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !killed {
		t.Fatal("the checkpoint's Coordinate hook never fired; no shard was killed")
	}
	if res.Recoveries == 0 {
		t.Fatal("worker finished without a recovery despite the shard kill")
	}
	if res.NextIter != steps {
		t.Fatalf("NextIter = %d, want %d", res.NextIter, steps)
	}

	ref := referencePipeline(t, sc)
	if _, err := ref.Train(context.Background(), src, 0, steps, batch); err != nil {
		t.Fatal(err)
	}
	if got, want := distributedHash(t, sc, w.Pipeline(), w.Client()), referenceHash(t, sc, ref); got != want {
		t.Fatalf("final parameters diverge after recovery: %016x vs %016x", got, want)
	}
}

// TestKillAndRejoinTwoWorkers is the acceptance scenario: two shards (shard
// 1 loses a few of its responses), worker A trains to the version-40
// coordinated checkpoint, then shard 1 is killed and restarted and A itself
// dies (context cancelled). Worker B — a different identity sharing only
// the checkpoint file — waits out A's lease, fences A's epoch, rolls the
// cluster back to version 40 (rejoining the restarted shard), and finishes
// the run. The final parameters must be bit-identical to a single-process
// run that lost no frame and saw no kill and no handover.
func TestKillAndRejoinTwoWorkers(t *testing.T) {
	sc := testScenario()
	const steps, batch, every = 60, 16, 20
	dirs := []string{t.TempDir(), t.TempDir()}
	// Shard 1 drops a few whole responses by a seeded schedule that carries
	// over its restart; the budget keeps the run finite, and idempotent
	// retries must absorb every drop.
	drops := &dropSchedule{seed: 42, prob: 0.02, budget: 5}
	var mu sync.Mutex
	shards := make([]*Shard, 2)
	addrs := make([]string, 2)
	shards[0], addrs[0] = bootShard(t, sc, 0, 2, dirs[0], "127.0.0.1:0", nil)
	shards[1], addrs[1] = bootShard(t, sc, 1, 2, dirs[1], "127.0.0.1:0", drops)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range shards {
			s.Close()
		}
	})

	ckpt := filepath.Join(t.TempDir(), "worker.ckpt")
	newCfg := func(id uint64) WorkerConfig {
		cfg := testWorkerConfig(sc, id, addrs)
		cfg.Checkpoint = ps.CheckpointConfig{Path: ckpt, Every: every}
		cfg.LeaseTTL = 150 * time.Millisecond
		cfg.RPCTimeout = 500 * time.Millisecond
		cfg.Sleep = nil // standby polling must follow the real lease clock
		return cfg
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	cfgA := newCfg(1)
	killed := false
	cfgA.Checkpoint.Coordinate = func(v int) error {
		if v != 2*every || killed {
			return nil
		}
		killed = true
		mu.Lock()
		shards[1].Close()
		shards[1], _ = bootShard(t, sc, 1, 2, dirs[1], addrs[1], drops)
		mu.Unlock()
		cancelA() // A dies with the shard commit done but the run unfinished
		return nil
	}
	a, err := NewWorker(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	src := testDataset(t, sc)
	if _, err := a.Run(ctxA, src, steps, batch); err == nil {
		t.Fatal("worker A finished the whole run; it was supposed to die at version 40")
	}
	if !killed {
		t.Fatal("worker A never reached the version-40 checkpoint")
	}

	b, err := NewWorker(newCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	res, err := b.Run(context.Background(), src, steps, batch)
	if err != nil {
		t.Fatalf("worker B: %v", err)
	}
	if res.NextIter != steps {
		t.Fatalf("worker B NextIter = %d, want %d", res.NextIter, steps)
	}
	if res.Completed > steps-2*every {
		t.Fatalf("worker B trained %d steps; the version-40 checkpoint should leave at most %d", res.Completed, steps-2*every)
	}

	ref := referencePipeline(t, sc)
	if _, err := ref.Train(context.Background(), src, 0, steps, batch); err != nil {
		t.Fatal(err)
	}
	got := distributedHash(t, sc, b.Pipeline(), b.Client())
	want := referenceHash(t, sc, ref)
	if got != want {
		t.Fatalf("handover run diverges from reference: %016x vs %016x", got, want)
	}
	frames, dropped := drops.counts()
	t.Logf("shard 1 dropped %d of %d responses", dropped, frames)
	if dropped == 0 {
		t.Fatal("shard 1 dropped no response; the drop schedule never fired")
	}
}
