package distps

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/dlrm"
	"repro/internal/embedding"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/tensor"
)

func testSpec() data.Spec {
	return data.Spec{
		Name: "distps-test", NumDense: 3, TableRows: []int{96, 64, 256},
		ZipfS: 1.2, ZipfV: 2, GroupSize: 16, ActiveGroups: 4, Locality: 0.8,
		Samples: 1 << 20, Seed: 33,
	}
}

// testScenario places tables 0 and 1 (96 and 64 rows) on the parameter
// server and TT-compresses table 2 (256 rows ≥ threshold 200) on the device.
func testScenario() Scenario {
	return Scenario{
		Spec: testSpec(),
		Model: dlrm.Config{
			NumDense: 3, EmbDim: 8, BottomSizes: []int{12}, TopSizes: []int{12},
			LR: 0.5, Seed: 9,
		},
		Rank: 4, TTThreshold: 200, Seed: 33, QueueDepth: 4,
	}
}

// startShards boots n shards of sc on loopback listeners, returning the
// live shards and their addresses. mutate (optional) adjusts each config
// before boot. Shards are closed via t.Cleanup.
func startShards(t *testing.T, sc Scenario, n int, mutate func(*ShardConfig)) ([]*Shard, []string) {
	t.Helper()
	shards := make([]*Shard, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := sc.ShardConfig(i, n, t.TempDir())
		cfg.DrainTimeout = 50 * time.Millisecond
		cfg.Metrics = obs.NewRegistry()
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := NewShard(cfg)
		if err != nil {
			t.Fatalf("NewShard(%d): %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveShard(s, ln)
		t.Cleanup(func() { s.Close() })
		shards[i] = s
		addrs[i] = ln.Addr().String()
	}
	return shards, addrs
}

// serveShard runs the accept loop on its own goroutine.
func serveShard(s *Shard, ln net.Listener) {
	spawn(s.log, "accept loop", func() { s.Serve(ln) }, "shard", s.cfg.ID)
}

// fastBackoff retries aggressively with instant sleeps so fault tests
// finish in milliseconds.
func fastBackoff() ps.RetryPolicy {
	return ps.RetryPolicy{MaxRetries: 6, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		Sleep: func(time.Duration) {}}
}

func newTestClient(t *testing.T, sc Scenario, addrs []string, workerID uint64) *Client {
	t.Helper()
	cfg := sc.clientConfig(workerID, addrs)
	cfg.Timeout = 2 * time.Second
	cfg.Retry = fastBackoff()
	cfg.Metrics = obs.NewRegistry()
	c, err := newClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// referenceBag rebuilds host table spec's full init-time contents the way
// the single-process pipeline does.
func referenceBag(sc Scenario, spec TableSpec) *embedding.Bag {
	return embedding.NewBag(spec.Rows, sc.Model.EmbDim, ps.HostRNG(sc.Seed, spec.Index))
}

func TestShardPartitionsEveryRowExactlyOnce(t *testing.T) {
	sc := testScenario()
	shards, _ := startShards(t, sc, 3, nil)
	for _, spec := range sc.HostSpecs() {
		total := 0
		for _, s := range shards {
			total += s.ownedRows(spec.Index)
		}
		if total != spec.Rows {
			t.Errorf("table %d: shards own %d rows in total, want %d", spec.Index, total, spec.Rows)
		}
	}
}

func TestGatherMatchesReferenceInit(t *testing.T) {
	sc := testScenario()
	_, addrs := startShards(t, sc, 2, nil)
	c := newTestClient(t, sc, addrs, 1)
	if err := c.helloAll(context.Background()); err != nil {
		t.Fatalf("HelloAll: %v", err)
	}
	for _, spec := range sc.HostSpecs() {
		got, err := GatherFullTable(c.Store(context.Background(), spec), spec)
		if err != nil {
			t.Fatalf("gather table %d: %v", spec.Index, err)
		}
		want := referenceBag(sc, spec).Weights
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("table %d shape: got %dx%d, want %dx%d", spec.Index, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("table %d value %d: shard init %v, reference %v", spec.Index, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// gatherRows gathers rows through store into a fresh matrix, in order.
func gatherRows(store ps.HostStore, rows []int) (*tensor.Matrix, error) {
	out := tensor.New(len(rows), store.Dim())
	if err := store.GatherRows(rows, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestPushApplyAndDedup(t *testing.T) {
	sc := testScenario()
	shards, addrs := startShards(t, sc, 2, nil)
	c := newTestClient(t, sc, addrs, 1)
	if _, err := c.acquireLease(context.Background()); err != nil {
		t.Fatalf("AcquireLease: %v", err)
	}
	spec := sc.HostSpecs()[0]
	store := c.Store(context.Background(), spec)
	rows := []int{0, 5, 17}
	before, err := gatherRows(store, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Gathering into positions scatters row k into dst.Row(at[k]) and
	// leaves the other rows alone.
	scattered := tensor.New(len(rows)+1, sc.Model.EmbDim)
	scattered.Row(0)[0] = 42
	if err := store.GatherRows(rows, []int{3, 1, 2}, scattered); err != nil {
		t.Fatal(err)
	}
	for k, at := range []int{3, 1, 2} {
		if !slices.Equal(scattered.Row(at), before.Row(k)) {
			t.Fatalf("row %d gathered into slot %d differs from the in-order gather", rows[k], at)
		}
	}
	if scattered.Row(0)[0] != 42 {
		t.Fatal("a gather into positions wrote a row it was not given")
	}
	delta := tensor.New(len(rows), sc.Model.EmbDim)
	for i := range delta.Data {
		delta.Data[i] = float32(i) * 0.25
	}
	if err := store.ApplyDelta(rows, delta); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	after, err := gatherRows(store, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after.Data {
		if want := before.Data[i] + delta.Data[i]; after.Data[i] != want {
			t.Fatalf("value %d after push: %v, want %v", i, after.Data[i], want)
		}
	}

	// A byte-identical replay of an already-applied push (a transport retry)
	// must ack without reapplying.
	shard := c.ring.owner(spec.Index, rows[0])
	seq := c.nextSeq()
	one := make([]float32, sc.Model.EmbDim)
	for j := range one {
		one[j] = 1
	}
	if err := c.Push(context.Background(), shard, seq, spec.Index, rows[:1], one); err != nil {
		t.Fatalf("push: %v", err)
	}
	applied, err := gatherRows(store, rows[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(context.Background(), shard, seq, spec.Index, rows[:1], one); err != nil {
		t.Fatalf("replayed push: %v", err)
	}
	replayed, err := gatherRows(store, rows[:1])
	if err != nil {
		t.Fatal(err)
	}
	for j := range replayed.Row(0) {
		if replayed.Row(0)[j] != applied.Row(0)[j] {
			t.Fatalf("dedup failed: row changed on replayed seq %d", seq)
		}
	}
	deduped := int64(0)
	for _, s := range shards {
		deduped += s.m.pushesDeduped.Value()
	}
	if deduped == 0 {
		t.Fatal("no push was deduplicated")
	}
}

func TestLeaseFencingRejectsStaleWorker(t *testing.T) {
	sc := testScenario()
	_, addrs := startShards(t, sc, 2, func(cfg *ShardConfig) {
		cfg.LeaseTTL = 50 * time.Millisecond
	})
	a := newTestClient(t, sc, addrs, 1)
	b := newTestClient(t, sc, addrs, 2)
	if _, err := a.acquireLease(context.Background()); err != nil {
		t.Fatalf("A acquire: %v", err)
	}
	// While A's lease is live, B cannot take it.
	if _, err := b.acquireLease(context.Background()); !errors.Is(err, errLeaseHeld) {
		t.Fatalf("B acquire under A's lease: %v, want errLeaseHeld", err)
	}
	// After the TTL lapses B takes over with a higher epoch...
	time.Sleep(80 * time.Millisecond)
	epochB, err := b.acquireLease(context.Background())
	if err != nil {
		t.Fatalf("B acquire after expiry: %v", err)
	}
	if epochB <= 0 || epochB <= a.epoch.Load() {
		t.Fatalf("B epoch %d does not out-fence A epoch %d", epochB, a.epoch.Load())
	}
	// helloAll propagates the new epoch to every shard (what worker.Run does
	// right after acquiring); from then on A's traffic is fenced everywhere.
	if err := b.helloAll(context.Background()); err != nil {
		t.Fatalf("B HelloAll: %v", err)
	}
	// ...and A's traffic is fenced everywhere once a shard learns of B: a
	// push with A's stale epoch is rejected, not applied.
	spec := sc.HostSpecs()[0]
	delta := tensor.New(1, sc.Model.EmbDim)
	if err := c0Push(a, spec, delta); !errors.Is(err, errFenced) {
		t.Fatalf("stale push: %v, want errFenced", err)
	}
	// A's renewal fails too — it no longer holds the lease.
	if err := a.renewLease(context.Background()); !errors.Is(err, errLeaseHeld) {
		t.Fatalf("stale renew: %v, want errLeaseHeld", err)
	}
	// B, the rightful holder, still trains.
	if err := c0Push(b, spec, delta); err != nil {
		t.Fatalf("B push: %v", err)
	}
}

// c0Push pushes a one-row delta to row 0's owner through client c.
func c0Push(c *Client, spec TableSpec, delta *tensor.Matrix) error {
	shard := c.ring.owner(spec.Index, 0)
	return c.Push(context.Background(), shard, c.nextSeq(), spec.Index, []int{0}, delta.Row(0))
}

func TestCheckpointRestoreRollsBack(t *testing.T) {
	sc := testScenario()
	_, addrs := startShards(t, sc, 2, nil)
	c := newTestClient(t, sc, addrs, 1)
	if _, err := c.acquireLease(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec := sc.HostSpecs()[0]
	store := c.Store(context.Background(), spec)
	rows := []int{3, 40}
	delta := tensor.New(len(rows), sc.Model.EmbDim)
	for i := range delta.Data {
		delta.Data[i] = 1
	}
	if err := store.ApplyDelta(rows, delta); err != nil {
		t.Fatal(err)
	}
	atCheckpoint, err := gatherRows(store, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkpointAll(context.Background(), 7); err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	if err := store.ApplyDelta(rows, delta); err != nil {
		t.Fatal(err)
	}
	if err := c.restoreAll(context.Background(), 7); err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	got, err := gatherRows(store, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if got.Data[i] != atCheckpoint.Data[i] {
			t.Fatalf("value %d after restore: %v, want checkpoint value %v", i, got.Data[i], atCheckpoint.Data[i])
		}
	}
	// Restoring a version nobody checkpointed is a typed failure.
	if err := c.restoreAll(context.Background(), 99); !errors.Is(err, errNoCheckpoint) {
		t.Fatalf("RestoreAll(99): %v, want errNoCheckpoint", err)
	}
}

func TestRestartedShardRequiresRestore(t *testing.T) {
	sc := testScenario()
	dir := t.TempDir()
	cfg := sc.ShardConfig(0, 1, dir)
	cfg.DrainTimeout = 50 * time.Millisecond
	s1, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Restored() {
		t.Fatal("a fresh shard must serve immediately (it wrote durable v0)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveShard(s1, ln)
	addr := ln.Addr().String()

	c := newTestClient(t, sc, []string{addr}, 1)
	if _, err := c.acquireLease(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec := sc.HostSpecs()[0]
	store := c.Store(context.Background(), spec)
	delta := tensor.New(1, sc.Model.EmbDim)
	delta.Data[0] = 42
	if err := store.ApplyDelta([]int{0}, delta); err != nil {
		t.Fatal(err)
	}
	if err := c.checkpointAll(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	want, err := gatherRows(store, []int{0})
	if err != nil {
		t.Fatal(err)
	}

	// Kill and restart on the same address and directory.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewShard(cfg)
	if err != nil {
		t.Fatalf("restarting shard: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	if s2.Restored() {
		t.Fatal("a restarted shard must refuse data RPCs until restored")
	}
	if v := s2.Version(); v != 5 {
		t.Fatalf("restarted shard sees latest durable version %d, want 5", v)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	serveShard(s2, ln2)

	if _, err := gatherRows(store, []int{0}); !errors.Is(err, errNotRestored) {
		t.Fatalf("gather before restore: %v, want errNotRestored", err)
	}
	if err := c.restoreAll(context.Background(), 5); err != nil {
		t.Fatalf("RestoreAll after restart: %v", err)
	}
	got, err := gatherRows(store, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("restored value %d: %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// The fencing watermark survived the restart via the epoch file.
	if s2.highestEpoch() == 0 {
		t.Fatal("restarted shard forgot the fencing epoch")
	}
}

func TestHelloRejectsSpecMismatch(t *testing.T) {
	sc := testScenario()
	_, addrs := startShards(t, sc, 1, nil)
	bad := sc
	bad.Model.EmbDim = 16 // worker disagrees about the embedding dimension
	c := newTestClient(t, bad, addrs, 1)
	if err := c.helloAll(context.Background()); !errors.Is(err, errSpecMismatch) {
		t.Fatalf("HelloAll with wrong dim: %v, want errSpecMismatch", err)
	}
}

// TestShardUpFollowsRPCOutcome: distps_shard<i>_up is read off ordinary
// RPCs — 0 once the shard is killed and an RPC to it fails, 1 again once it
// restarts and an RPC succeeds — while the other shard's gauge stays 1.
func TestShardUpFollowsRPCOutcome(t *testing.T) {
	sc := testScenario()
	dirs := []string{t.TempDir(), t.TempDir()}
	shards := make([]*Shard, 2)
	addrs := make([]string, 2)
	for i := range shards {
		shards[i], addrs[i] = bootShard(t, sc, i, 2, dirs[i], "127.0.0.1:0", nil)
	}
	t.Cleanup(func() {
		for _, s := range shards {
			s.Close()
		}
	})
	c := newTestClient(t, sc, addrs, 1)
	ctx := context.Background()
	up := func() [2]float64 {
		g := c.cfg.Metrics.Snapshot().Gauges
		return [2]float64{g["distps_shard0_up"], g["distps_shard1_up"]}
	}
	if err := c.helloAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got := up(); got != [2]float64{1, 1} {
		t.Fatalf("after HelloAll: up = %v, want [1 1]", got)
	}

	shards[1].Close()
	if _, err := c.stats(ctx, 1, 0); !errors.Is(err, errRPCFailed) {
		t.Fatalf("Stats against a killed shard: %v, want errRPCFailed", err)
	}
	if got := up(); got != [2]float64{1, 0} {
		t.Fatalf("after a failed RPC to the killed shard: up = %v, want [1 0]", got)
	}

	shards[1], _ = bootShard(t, sc, 1, 2, dirs[1], addrs[1], nil)
	if _, err := c.stats(ctx, 1, 0); err != nil {
		t.Fatalf("Stats against the restarted shard: %v", err)
	}
	if got := up(); got != [2]float64{1, 1} {
		t.Fatalf("after an RPC to the restarted shard: up = %v, want [1 1]", got)
	}
}

func TestDeadShardExhaustsRetries(t *testing.T) {
	sc := testScenario()
	// A listener that is closed immediately: every dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := newTestClient(t, sc, []string{addr}, 1)
	if err := c.helloAll(context.Background()); !errors.Is(err, errRPCFailed) {
		t.Fatalf("HelloAll against a dead shard: %v, want errRPCFailed", err)
	}
	if got := c.m.retries.Value(); got != int64(fastBackoff().MaxRetries) {
		t.Fatalf("retry counter = %d, want %d", got, fastBackoff().MaxRetries)
	}
}

func TestShardRejectsForeignRows(t *testing.T) {
	sc := testScenario()
	shards, addrs := startShards(t, sc, 2, nil)
	c := newTestClient(t, sc, addrs, 1)
	if _, err := c.acquireLease(context.Background()); err != nil {
		t.Fatal(err)
	}
	spec := sc.HostSpecs()[0]
	// Find a row shard 0 does not own and ask it anyway.
	foreign := -1
	for r := 0; r < spec.Rows; r++ {
		if c.ring.owner(spec.Index, r) != 0 {
			foreign = r
			break
		}
	}
	if foreign < 0 {
		t.Skip("shard 0 owns every row at this seed")
	}
	if _, err := c.gather(context.Background(), 0, spec.Index, []int{foreign}); !errors.Is(err, errBadRequest) {
		t.Fatalf("foreign gather: %v, want errBadRequest", err)
	}
	_ = shards
}

// TestBackoffDelayCaps: the transport policy's zero value takes 4 retries,
// 5ms→250ms, and its delays double up to the cap.
func TestBackoffDelayCaps(t *testing.T) {
	b := transportRetry(ps.RetryPolicy{})
	if b.MaxRetries != 4 || b.BaseDelay != 5*time.Millisecond || b.MaxDelay != 250*time.Millisecond {
		t.Fatalf("transport defaults %+v, want 4 retries, 5ms→250ms", b)
	}
	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		250 * time.Millisecond, 250 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
	// Far-out attempts (including shift overflow territory) stay capped.
	for _, attempt := range []int{29, 31, 63, 1 << 20} {
		if got := b.Delay(attempt); got != b.MaxDelay {
			t.Errorf("Delay(%d) = %v, want cap %v", attempt, got, b.MaxDelay)
		}
	}
}

// TestRetryBackoffSequenceDeterministic records the exact waits of an
// exhausted retry loop through the Sleep hook.
func TestRetryBackoffSequenceDeterministic(t *testing.T) {
	sc := testScenario()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var slept []time.Duration
	cfg := sc.clientConfig(1, []string{addr})
	cfg.Timeout = time.Second
	cfg.Retry = ps.RetryPolicy{MaxRetries: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 8 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	c, err := newClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.helloAll(context.Background()); !errors.Is(err, errRPCFailed) {
		t.Fatalf("HelloAll: %v, want errRPCFailed", err)
	}
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("backoff sequence %v, want %v", slept, want)
	}
}
