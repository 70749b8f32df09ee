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

// busy counts the executors running a dispatch's chunks. A ParallelFor that
// starts while Workers() of them are busy (one nested in another's body,
// like a table's own dispatches inside a table stage) runs inline instead of
// offering chunks no executor is free to take.
var busy atomic.Int64

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
//
// Headers are recycled: refs counts the caller plus every offer of the job
// still queued or running on a worker, and the last release returns the
// header to freeJobs. A stale offer (a worker dequeuing a job whose chunks
// are all claimed) therefore never sees a reused header, and because the
// offer queue is only as deep as the host is wide, stale offers keep at most
// that many headers from the free list.
type poolJob struct {
	body   func(ctx any, lo, hi int)
	ctx    any
	n      int
	chunk  int
	ticket atomic.Int64   // next unclaimed chunk index
	wg     sync.WaitGroup // counts unfinished chunks
	refs   atomic.Int32   // the caller plus its outstanding offers
}

// run claims and executes chunks until none remain. Safe to call from any
// number of goroutines; late arrivals (a worker dequeuing a finished job)
// see no tickets and return immediately.
func (j *poolJob) run() {
	busy.Add(1)
	defer busy.Add(-1)
	for {
		t := int(j.ticket.Add(1)) - 1
		lo := t * j.chunk
		if lo >= j.n {
			return
		}
		j.body(j.ctx, lo, min(lo+j.chunk, j.n))
		j.wg.Done()
	}
}

// release drops one reference and recycles the header with the last one.
func (j *poolJob) release() {
	if j.refs.Add(-1) == 0 {
		j.body, j.ctx = nil, nil
		freeJobs.put(j)
	}
}

// freeList recycles *T values through a buffered channel: get takes one or
// makes one, put keeps one while there is room. Neither allocates once the
// list holds as many values as its users have in flight.
type freeList[T any] chan *T

func (f freeList[T]) get() *T {
	select {
	case x := <-f:
		return x
	default:
		return new(T)
	}
}

func (f freeList[T]) put(x *T) {
	select {
	case f <- x:
	default:
	}
}

// poolJobs feeds the persistent workers. Its depth bounds how many offers a
// burst of ParallelFor calls can park, and so how many headers stale offers
// can hold; a full queue sends the caller to run the chunks itself.
var poolJobs = make(chan *poolJob, runtime.GOMAXPROCS(0))

// freeJobs holds the released headers. A process has at most its nested and
// concurrent dispatches plus the offer queue's stale headers out at once, a
// few per executor; 64 keeps every one of them, and a header released into
// a full list is left to the collector.
var freeJobs = make(freeList[poolJob], 64)

// pool tracks the lazily-started persistent workers that replace the old
// per-call goroutine spawning.
var pool struct {
	mu      sync.Mutex
	spawned int // persistent workers started so far; guarded by mu
}

// ensureWorkers lazily tops the pool up to want persistent workers. Workers
// are never torn down: they block on poolJobs between dispatches, which is
// free, and keeping them avoids respawn churn when MaxWorkers oscillates.
func ensureWorkers(want int) {
	pool.mu.Lock()
	for pool.spawned < want {
		pool.spawned++
		go func() {
			for j := range poolJobs {
				j.run()
				j.release()
			}
		}()
	}
	pool.mu.Unlock()
}

// ParallelFor splits [0,n) into contiguous chunks and invokes body(ctx,lo,hi)
// on each chunk, blocking until all chunks complete. body must be safe to run
// concurrently on disjoint ranges; it takes its state through ctx, so a body
// that is a plain function (one capturing nothing) and a pointer ctx make the
// dispatch allocation-free at every worker count. With n <= 1, a single
// worker or every executor busy the call runs body(ctx,0,n) inline. Chunks
// execute on a persistent worker pool; the caller always participates, so a
// saturated pool degrades to inline execution rather than queueing behind
// other dispatches, and nested ParallelFor calls cannot deadlock.
func ParallelFor(n int, ctx any, body func(ctx any, lo, hi int)) {
	workers := min(Workers(), n)
	if workers <= 1 || busy.Load() >= int64(Workers()) {
		if n > 0 {
			body(ctx, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	j := freeJobs.get()
	j.body, j.ctx, j.n, j.chunk = body, ctx, n, chunk
	j.ticket.Store(0)
	j.refs.Store(1)
	j.wg.Add((n + chunk - 1) / chunk)
	ensureWorkers(workers - 1)
offer:
	for i := 1; i < workers; i++ {
		j.refs.Add(1)
		select {
		case poolJobs <- j:
		default: // queue full: every worker is busy, go help instead
			j.refs.Add(-1)
			break offer
		}
	}
	j.run()
	j.wg.Wait()
	j.release()
}
