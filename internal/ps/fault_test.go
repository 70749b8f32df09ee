package ps

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/tensor"
	"repro/internal/tt"
)

// fastRetry is a retry policy whose backoff completes instantly; tests
// record the requested delays instead of sleeping them.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond,
		Sleep: func(time.Duration) {}}
}

// assertParamsEqual fails unless the two pipelines hold bit-identical host
// tables and MLP parameters.
func assertParamsEqual(t *testing.T, want, got *Pipeline, label string) {
	t.Helper()
	if len(want.hostBags) != len(got.hostBags) {
		t.Fatalf("%s: host table count %d vs %d", label, len(want.hostBags), len(got.hostBags))
	}
	for h := 0; h < len(want.hostBags); h++ {
		if d := want.HostBag(h).Weights.MaxAbsDiff(got.HostBag(h).Weights); d != 0 {
			t.Fatalf("%s: host table %d differs by %v", label, h, d)
		}
	}
	wp, gp := want.Model().MLPParams(), got.Model().MLPParams()
	for i := range wp {
		if d := wp[i].Value.MaxAbsDiff(gp[i].Value); d != 0 {
			t.Fatalf("%s: MLP param %d (%s) differs by %v", label, i, wp[i].Name, d)
		}
	}
}

// TestFaultInjectionBitExact is the acceptance test for the transient-fault
// path: seeded gather/apply faults and slow-server stalls are retried with
// backoff and the run converges bit-exactly to a fault-free run, at both
// queue depths.
func TestFaultInjectionBitExact(t *testing.T) {
	spec := psSpec()
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	const steps, batch = 50, 64
	run := func(depth int, inj faults.Injector) *Pipeline {
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: depth, Seed: 4,
			Faults: inj, Retry: fastRetry()}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		mustTrain(t, p, d, 0, steps, batch)
		return p
	}
	clean := run(4, nil)
	for _, depth := range []int{1, 4} {
		inj := faults.NewSeeded(faults.Config{Seed: 99,
			GatherFailProb: 0.2, ApplyFailProb: 0.2,
			StallProb: 0.1, StallFor: 100 * time.Microsecond})
		faulty := run(depth, inj)
		assertParamsEqual(t, clean, faulty, "faulted run")
		st := faulty.Stats()
		if inj.Injected() == 0 || st.InjectedFaults == 0 {
			t.Fatalf("depth %d: no faults injected (stats %+v); test has no power", depth, st)
		}
		if st.Retries == 0 || st.BackoffTime == 0 {
			t.Fatalf("depth %d: faults injected but no retries recorded: %+v", depth, st)
		}
		if st.StallTime == 0 {
			t.Fatalf("depth %d: stall probability 0.1 over %d iters never stalled", depth, steps)
		}
		if int64(inj.Injected()) != st.InjectedFaults {
			t.Fatalf("depth %d: injector counted %d faults, stats %d", depth, inj.Injected(), st.InjectedFaults)
		}
	}
}

// TestGatherRetriesExhausted checks that a persistent gather fault turns
// into an errGatherFailed after MaxRetries, that the result remains
// resumable (the failed batch never reached the worker), and that completed
// parameters match a clean run of the completed prefix.
func TestGatherRetriesExhausted(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	inj := faults.NewSeeded(faults.Config{Seed: 1, GatherFailProb: 1.0})
	for _, depth := range []int{1, 3} {
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: depth, Seed: 4,
			Faults: inj, Retry: fastRetry()}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Train(context.Background(), d, 0, 20, 32)
		if !errors.Is(err, errGatherFailed) {
			t.Fatalf("depth %d: err = %v, want ErrGatherFailed", depth, err)
		}
		if !faults.IsInjected(err) {
			t.Fatalf("depth %d: exhausted gather error should still carry the injected sentinel: %v", depth, err)
		}
		if !res.Resumable || res.Completed != 0 || res.NextIter != 0 {
			t.Fatalf("depth %d: gather failure at iter 0 should be resumable at 0: %+v", depth, res)
		}
	}
}

// TestApplyRetriesExhaustedNotResumable checks the one genuinely fatal
// transient path: if a gradient push cannot be applied even after retries,
// the host tables no longer reflect every trained batch, so the result must
// say "restore from checkpoint" — at both queue depths. The sequential
// schedule stops before counting the step whose push failed.
func TestApplyRetriesExhaustedNotResumable(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	// Every apply attempt fails (1 + 3 retries per push).
	inj := faults.NewSeeded(faults.Config{Seed: 1, ApplyFailProb: 1.0})
	for _, depth := range []int{1, 4} {
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: depth, Seed: 4,
			Faults: inj, Retry: fastRetry()}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Train(context.Background(), d, 0, 10, 32)
		if !errors.Is(err, errApplyFailed) || !faults.IsInjected(err) {
			t.Fatalf("depth %d: err = %v, want ErrApplyFailed wrapping the injected sentinel", depth, err)
		}
		if res.Resumable || res.NextIter != -1 {
			t.Fatalf("depth %d: exhausted apply retries must not be resumable: %+v", depth, res)
		}
		if depth == 1 && res.Completed != 0 {
			t.Fatalf("depth 1: the first push failed, yet Completed = %d", res.Completed)
		}
	}
}

// onceWorkerFault injects exactly one worker panic at iteration at, then
// injects nothing — the "worker crashed once, restart it" scenario.
type onceWorkerFault struct {
	at    int
	mu    sync.Mutex
	fired bool
}

func (o *onceWorkerFault) Fault(op faults.Op, iter, attempt int) error {
	if op != faults.OpWorker || iter != o.at {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fired {
		return nil
	}
	o.fired = true
	return &faults.WorkerFault{Iter: iter}
}

// TestWorkerFaultDrainsAndResumes injects a worker panic mid-run at both
// queue depths: Train must surface errWorkerFault (not deadlock), the drain
// must leave the parameters consistent at the reported NextIter, and
// resuming from there must converge bit-exactly to an uninterrupted run.
func TestWorkerFaultDrainsAndResumes(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	const steps, batch, faultAt = 40, 32, 17
	clean, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, clean, d, 0, steps, batch)

	for _, depth := range []int{1, 4} {
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: depth, Seed: 4,
			Faults: &onceWorkerFault{at: faultAt}, Retry: fastRetry()}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var res *TrainResult
		var terr error
		go func() {
			defer close(done)
			res, terr = p.Train(context.Background(), d, 0, steps, batch)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("depth %d: worker fault deadlocked the pipeline", depth)
		}
		if !errors.Is(terr, errWorkerFault) || !faults.IsInjected(terr) {
			t.Fatalf("depth %d: err = %v, want ErrWorkerFault wrapping the injected sentinel", depth, terr)
		}
		if !res.Resumable || res.Completed != faultAt || res.NextIter != faultAt {
			t.Fatalf("depth %d: worker fault at %d: %+v", depth, faultAt, res)
		}
		// Resume the same pipeline where it left off; the fault fired once.
		mustTrain(t, p, d, res.NextIter, steps-res.Completed, batch)
		assertParamsEqual(t, clean, p, "resume after worker fault")
	}
}

// cancelAtIter cancels ctx the moment the pre-fetcher asks for iteration
// `at`, which lands the cancellation while at-1 earlier batches are still in
// flight through the queues.
type cancelAtIter struct {
	inner  BatchSource
	at     int
	cancel context.CancelFunc
}

func (c *cancelAtIter) Batch(iter, size int) *data.Batch { return c.BatchFrom(nil, nil, iter, size) }

func (c *cancelAtIter) BatchFrom(dst *data.Batch, plan *data.WindowPlan, iter, size int) *data.Batch {
	if iter == c.at {
		c.cancel()
	}
	return c.inner.BatchFrom(dst, plan, iter, size)
}

func (c *cancelAtIter) IndicesInto(g *data.Generator, dst []int, iter, size, table int) []int {
	return c.inner.IndicesInto(g, dst, iter, size, table)
}

// TestPipelineShutdownMidTraining is the shutdown satellite: cancel at a
// set of staggered steps with QueueDepth > 1 and assert (a) no goroutine
// leak, (b) no deadlock, (c) the host tables are exactly consistent with
// the returned resume iteration, by comparing against a clean run truncated
// to Completed steps.
func TestPipelineShutdownMidTraining(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	const steps, batch = 40, 32
	base := runtime.NumGoroutine()
	for _, cancelAt := range []int{3, 7, 13, 26} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelAtIter{inner: d, at: cancelAt, cancel: cancel}
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		type out struct {
			res *TrainResult
			err error
		}
		ch := make(chan out, 1)
		go func() {
			res, err := p.Train(ctx, src, 0, steps, batch)
			ch <- out{res, err}
		}()
		var o out
		select {
		case o = <-ch:
		case <-time.After(30 * time.Second):
			t.Fatalf("cancel at %d: Train deadlocked", cancelAt)
		}
		cancel()
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", cancelAt, o.err)
		}
		if !o.res.Resumable || o.res.NextIter != o.res.Completed {
			t.Fatalf("cancel at %d: inconsistent result %+v", cancelAt, o.res)
		}
		if o.res.Completed >= steps {
			t.Fatalf("cancel at %d: run was not actually interrupted (%d steps)", cancelAt, o.res.Completed)
		}
		// Consistency with the resume iteration: a clean sequential run of
		// exactly Completed steps must match bit-for-bit.
		ref, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 1, Seed: 4}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		if o.res.Completed > 0 {
			mustTrain(t, ref, d, 0, o.res.Completed, batch)
		}
		assertParamsEqual(t, ref, p, "cancelled pipeline vs truncated clean run")
		// Resuming the cancelled pipeline completes the original schedule.
		full, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		mustTrain(t, full, d, 0, steps, batch)
		mustTrain(t, p, d, o.res.NextIter, steps-o.res.Completed, batch)
		assertParamsEqual(t, full, p, "cancelled-then-resumed vs uninterrupted")
	}
	// Goroutine leak check: allow the runtime a moment to retire workers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after shutdowns", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillAndResumeBitExact is the crash-recovery acceptance test: train
// with periodic checkpoints, abandon the pipeline mid-run (the process
// "dies" — its in-memory parameters are lost), rebuild from scratch, resume
// from the checkpoint file, and verify bit-exact equivalence with an
// uninterrupted run. Uses the Figure 16 mixed placement so the checkpoint
// carries a device TT table alongside the host tables.
func TestKillAndResumeBitExact(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	const steps, batch, every = 40, 32, 10
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")

	locs := func() []TableLoc {
		shape, err := tt.NewShape(spec.TableRows[0], 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		dev := tt.NewTable(shape, tensor.NewRNG(2), 0.05)
		return []TableLoc{{Device: dev}, {HostRows: spec.TableRows[1]}}
	}

	clean, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, locs())
	if err != nil {
		t.Fatal(err)
	}
	mustTrain(t, clean, d, 0, steps, batch)

	// Run A: checkpoint every 10 steps, "killed" at step 23 via cancel. Its
	// in-memory state is discarded; only the checkpoint file survives.
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelAtIter{inner: d, at: 23, cancel: cancel}
	a, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4,
		Checkpoint: CheckpointConfig{Path: ckpt, Every: every}}, locs())
	if err != nil {
		t.Fatal(err)
	}
	_, terr := a.Train(ctx, src, 0, steps, batch)
	cancel()
	if !errors.Is(terr, context.Canceled) {
		t.Fatalf("kill run: err = %v", terr)
	}
	if st := a.Stats(); st.Checkpoints == 0 {
		t.Fatal("kill run wrote no checkpoints; test has no power")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp checkpoint file left behind: %v", err)
	}

	// Run B: fresh pipeline (different seed so the initial state is NOT the
	// same — everything must come from the file), resume and finish.
	b, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 777}, locs())
	if err != nil {
		t.Fatal(err)
	}
	next, err := b.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if next <= 0 || next >= 23 || next%every != 0 {
		t.Fatalf("resume iteration %d, want a multiple of %d below the kill step", next, every)
	}
	mustTrain(t, b, d, next, steps-next, batch)
	assertParamsEqual(t, clean, b, "kill-and-resume vs uninterrupted")
}

// TestCheckpointFailureSurfaces checks that an unwritable checkpoint path
// becomes a typed errCheckpointFailed instead of a panic or a silent skip.
func TestCheckpointFailureSurfaces(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	bad := filepath.Join(t.TempDir(), "no-such-dir", "train.ckpt")
	for _, depth := range []int{1, 3} {
		p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: depth, Seed: 4,
			Checkpoint: CheckpointConfig{Path: bad, Every: 2}}, allHostLocs(spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Train(context.Background(), d, 0, 10, 32)
		if !errors.Is(err, errCheckpointFailed) {
			t.Fatalf("depth %d: err = %v, want ErrCheckpointFailed", depth, err)
		}
		if !res.Resumable {
			t.Fatalf("depth %d: checkpoint write failure leaves memory consistent; must stay resumable: %+v", depth, res)
		}
	}
}

// TestStatsSafeDuringTraining hammers Stats() while Train runs; under
// `go test -race` this is the regression test for the Stats data race.
func TestStatsSafeDuringTraining(t *testing.T) {
	spec := psSpec()
	d, _ := data.New(spec)
	p, err := NewPipeline(Config{Model: psModelCfg(), QueueDepth: 4, Seed: 4}, allHostLocs(spec))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Stats()
			}
		}
	}()
	mustTrain(t, p, d, 0, 40, 32)
	close(stop)
	wg.Wait()
	if st := p.Stats(); st.Steps != 40 {
		t.Fatalf("Steps = %d", st.Steps)
	}
}
