package dlrm

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/tensor/workertest"
	"repro/internal/tt"
)

// TestTrainStepZeroAllocFreshBatches is the training step's allocation
// contract at the train_tt benchmark's table mix — Terabyte at scale 0.01,
// five Eff-TT tables and 21 embedding.Bag tables, dim = rank = 64, batch 128:
// after the benchmark's eight warm-up steps, TrainStep on 100 batches it has
// never seen allocates nothing, at one worker and at the host's width. Every
// table kind looks up into its own scratch, and per-batch scratch grows with
// headroom (tt's growInts) or to its bound (a Bag's), so fresh batches with
// more unique rows or prefixes than any before them still fit.
func TestTrainStepZeroAllocFreshBatches(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	spec := data.TerabyteSpec(0.01)
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	tables, compressed, err := BuildTables(spec.TableRows, TableSpec{Dim: 64, Rank: 64, TTThreshold: 10_000, Opts: tt.EffOptions(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if compressed != 5 {
		t.Fatalf("%d TT tables, train_tt has 5", compressed)
	}
	cfg := DefaultConfig(spec.NumDense, 64)
	cfg.LR = 1
	m, err := NewModel(cfg, tables)
	if err != nil {
		t.Fatal(err)
	}
	// At each worker count: eight warm-up steps, AllocsPerRun's untimed
	// run, then 100 counted ones, all on batches not seen before.
	const warmup = 8
	batches := make([]*data.Batch, 2*(warmup+101))
	for i := range batches {
		batches[i] = d.Batch(i, 128)
	}
	k := -1
	workertest.Each(t, func(workers int) {
		for range warmup {
			k++
			m.TrainStep(batches[k])
		}
		allocs := testing.AllocsPerRun(100, func() {
			k++
			m.TrainStep(batches[k])
		})
		if allocs != 0 {
			t.Fatalf("TrainStep on fresh batches allocated %v times per step at %d workers, want 0", allocs, workers)
		}
	})
}

// TestTrainStepZeroAllocThousandFreshSteps extends the contract above to the
// scratch that grows with a batch's unique rows and prefixes: over 1 000
// consecutive fresh batches after an eight-step warm-up, at batch 8 and 64
// and at both worker counts, generating each into one reused batch and
// training on it makes no allocation at all. The count
// is the whole run's, where testing.AllocsPerRun's per-run quotient would
// round 999 allocations in 1 000 steps down to zero. The shape is the
// train_tt table mix at dim 8, rank 4, so the run takes seconds; it is
// training-length, and skipped under the race detector.
func TestTrainStepZeroAllocThousandFreshSteps(t *testing.T) {
	if workertest.Race {
		t.Skip("1 000-step run: too slow under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	spec := data.TerabyteSpec(0.01)
	d, err := data.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	const warmup, steps = 8, 1000
	for _, size := range []int{8, 64} {
		tables, _, err := BuildTables(spec.TableRows, TableSpec{Dim: 8, Rank: 4, TTThreshold: 10_000, Opts: tt.EffOptions(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(DefaultConfig(spec.NumDense, 8), tables)
		if err != nil {
			t.Fatal(err)
		}
		var b *data.Batch
		iter := 0
		step := func() {
			b = d.BatchInto(b, iter, size)
			m.TrainStep(b)
			iter++
		}
		workertest.Each(t, func(workers int) {
			for range warmup {
				step()
			}
			sites := programAllocations(func() {
				for range steps {
					step()
				}
			})
			for stack, n := range sites {
				t.Errorf("batch %d, %d workers: %d allocations in %d fresh steps at\n%s", size, workers, n, steps, stack)
			}
		})
	}
}

// programAllocations runs fn with every allocation profiled and returns the
// objects this module's code allocated while it ran, by call stack. Left
// out are the runtime's own (the unique package's cleanup after the
// snapshot's collection) and its refills of the sudog cache: a goroutine
// that blocks (ParallelFor's caller in WaitGroup.Wait) takes a sudog from its
// P's cache and frees it into the cache of the P it wakes on, and a P that
// finds its cache and the central one empty allocates one. So are the
// snapshot's own allocations.
func programAllocations(fn func()) map[string]int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocationSites()
	fn()
	after := allocationSites()
	sites := make(map[string]int64)
	for stack, n := range after {
		if n -= before[stack]; n == 0 {
			continue
		}
		var text strings.Builder
		ours := false
		frames := runtime.CallersFrames(stack[:])
		for i := 0; ; i++ {
			f, more := frames.Next()
			if i == 0 && f.Function == "runtime.acquireSudog" || strings.HasSuffix(f.Function, ".allocationSites") {
				ours = false
				break
			}
			ours = ours || strings.HasPrefix(f.Function, "repro/")
			fmt.Fprintf(&text, "\t%s:%d\n", f.Function, f.Line)
			if !more {
				break
			}
		}
		if ours {
			sites[text.String()] = n
		}
	}
	return sites
}

// allocationSites returns the objects allocated so far by call stack, as of
// a garbage collection it runs first (the profile is published by one).
func allocationSites() map[[32]uintptr]int64 {
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	sites := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}
