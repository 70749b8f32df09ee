package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the multiply-add count below which kernels stay on
// the calling goroutine. Splitting saves at most half the kernel's time and
// costs a pool dispatch and a join (a channel send, a futex wake and, when
// the helper is still running, a sleep on the WaitGroup). It is set from
// BenchmarkGemmSplit (EXPERIMENTS.md, "Dispatch threshold"): at the AVX2
// kernels' ~25 G multiply-adds/s, 1<<22 is ~170 µs of work and the smallest
// power of two at which two workers were not slower than one on the build
// host. The old 1<<16 was ~40 µs of scalar work and is ~4 µs now.
const parallelThreshold = 1 << 22

// Parallel reports whether a kernel of work multiply-adds should fan out
// over the worker pool instead of running on the calling goroutine.
func Parallel(work int) bool { return work >= parallelThreshold && Workers() > 1 }

// maxWorkers bounds the number of concurrent executors ParallelFor uses
// (the caller plus pool workers). Read and written atomically: the hw
// package lowers it while emulating narrower hosts concurrently with
// running kernels.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// Workers returns the current ParallelFor concurrency bound.
func Workers() int {
	return int(maxWorkers.Load())
}

// SetMaxWorkers bounds ParallelFor concurrency to n executors (minimum 1,
// meaning fully inline). Safe to call concurrently with running kernels:
// in-flight calls keep the bound they observed.
func SetMaxWorkers(n int) {
	if n < 1 {
		n = 1
	}
	maxWorkers.Store(int64(n))
}

// poolJob is one ParallelFor dispatch. Chunks are claimed by atomic ticket:
// every executor (pool workers plus the caller) increments ticket to claim
// the next contiguous chunk until the range is exhausted, so a slow chunk
// never idles the other executors.
type poolJob struct {
	body   func(lo, hi int)
	n      int
	chunk  int
	ticket atomic.Int64   // next unclaimed chunk index
	wg     sync.WaitGroup // counts unfinished chunks
}

// run claims and executes chunks until none remain. Safe to call from any
// number of goroutines; late arrivals (a worker dequeuing a finished job)
// see no tickets and return immediately.
func (j *poolJob) run() {
	for {
		t := int(j.ticket.Add(1)) - 1
		lo := t * j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.body(lo, hi) //elrec:coldpath body closures are checked at their hot creation sites
		j.wg.Done()
	}
}

// poolJobs feeds the persistent workers. The buffer bounds how many offers
// a burst of ParallelFor calls can park; stale entries for completed jobs
// cost one ticket check when dequeued.
var poolJobs = make(chan *poolJob, 64)

// pool tracks the lazily-started persistent workers that replace the old
// per-call goroutine spawning.
var pool struct {
	mu      sync.Mutex
	spawned int // persistent workers started so far; guarded by mu
}

// ensureWorkers lazily tops the pool up to want persistent workers. Workers
// are never torn down: they block on poolJobs between dispatches, which is
// free, and keeping them avoids respawn churn when MaxWorkers oscillates.
//
//elrec:coldpath one-time worker-pool warm-up; steady state finds the pool already spawned
func ensureWorkers(want int) {
	pool.mu.Lock()
	for pool.spawned < want {
		pool.spawned++
		go func() {
			for j := range poolJobs {
				j.run()
			}
		}()
	}
	pool.mu.Unlock()
}

// ParallelFor splits [0,n) into contiguous chunks and invokes body(lo,hi) on
// each chunk, blocking until all chunks complete. body must be safe to run
// concurrently on disjoint ranges. With n <= 1 or a single worker the call
// runs inline. Chunks execute on a persistent worker pool; the caller
// always participates, so a saturated pool degrades to inline execution
// rather than queueing behind other dispatches, and nested ParallelFor
// calls cannot deadlock.
//
//elrec:hotpath fan-out driver for every blocked kernel
func ParallelFor(n int, body func(lo, hi int)) {
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body(0, n) //elrec:coldpath body closures are checked at their hot creation sites
		}
		return
	}
	chunk := (n + workers - 1) / workers
	numChunks := (n + chunk - 1) / chunk
	//elrec:coldpath one job header per parallel dispatch; the zero-alloc contract is the serial (workers=1) path
	j := &poolJob{body: body, n: n, chunk: chunk}
	j.wg.Add(numChunks)
	ensureWorkers(workers - 1)
offer:
	for i := 1; i < workers; i++ {
		select {
		case poolJobs <- j:
		default:
			break offer // queue full: every worker is busy, go help instead
		}
	}
	j.run()
	j.wg.Wait()
}
