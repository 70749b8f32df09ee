package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The build host is a shared 2-vCPU sandbox whose speed changes by a factor
// of up to two for seconds to minutes at a time (README.md, "Noise"), so a
// wall time says as much about the neighbours as about the program. Every
// end-to-end time is therefore reported relative to a reference kernel: a
// fixed piece of arithmetic, owned by the benchmark and touching no repo
// code, timed beside the work it normalises. What slows the work slows the
// reference, and the quotient stays put (README.md has the ten-run spreads with
// and without).

// refNominal is the time one reference piece takes on an undisturbed core of
// the build host; normalised times are scaled by it, so they read as the
// microseconds the operation takes when nothing interferes.
const refNominal = 700 * time.Microsecond

// refSink keeps the compiler from discarding the reference arithmetic; the
// background sampler and the bursts each own one slot.
var refSink [2]float32

const (
	samplerSlot = 0
	burstSlot   = 1
)

// refPiece runs the reference kernel once, 1300 passes of a 2048-element
// single-precision dot product held in L1, and returns how long it took.
func refPiece(clock obs.Clock, slot int) time.Duration {
	var a, b [2048]float32
	for i := range a {
		a[i] = float32(i) * 0.001
		b[i] = 1 - float32(i)*0.0005
	}
	t0 := clock.Now()
	var s0, s1, s2, s3 float32
	for pass := 0; pass < 1300; pass++ {
		for i := 0; i < len(a); i += 4 {
			s0 += a[i] * b[i]
			s1 += a[i+1] * b[i+1]
			s2 += a[i+2] * b[i+2]
			s3 += a[i+3] * b[i+3]
		}
	}
	refSink[slot] = s0 + s1 + s2 + s3
	return obs.Since(clock, t0)
}

// refSample is one timed reference piece.
type refSample struct {
	at    time.Duration // start, since the refClock's epoch
	dur   time.Duration
	burst bool // run by burst on the measuring goroutine, not by the sampler
}

// refClock records reference pieces from two sources: bursts the measuring
// goroutine runs itself between operations, which see exactly what that
// thread sees, and a background goroutine that runs one piece every few
// milliseconds for as long as the clock is started, which sees what a
// thread beside the work sees and is all that can run during a call the
// benchmark cannot interleave with.
type refClock struct {
	clock obs.Clock
	epoch time.Time
	quit  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	samples []refSample // guarded by mu
}

// refPause is the background sampler's idle time between pieces: with a
// piece of about a millisecond it keeps a fifth of one vCPU busy.
const refPause = 4 * time.Millisecond

// startRef starts the background sampler. The caller must call stop.
func startRef() *refClock {
	clock := obs.System()
	r := &refClock{clock: clock, epoch: clock.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		runtime.LockOSThread() // one piece is timed on one thread
		defer runtime.UnlockOSThread()
		for {
			select {
			case <-r.quit:
				return
			default:
			}
			r.record(samplerSlot)
			time.Sleep(refPause)
		}
	}()
	return r
}

func (r *refClock) record(slot int) {
	at := obs.Since(r.clock, r.epoch)
	dur := refPiece(r.clock, slot)
	r.mu.Lock()
	r.samples = append(r.samples, refSample{at, dur, slot == burstSlot})
	r.mu.Unlock()
}

// now is the current reading of the clock the samples are stamped with.
func (r *refClock) now() time.Duration { return obs.Since(r.clock, r.epoch) }

// burst runs n reference pieces on the calling goroutine.
func (r *refClock) burst(n int) {
	for i := 0; i < n; i++ {
		r.record(burstSlot)
	}
}

// stop ends the background sampler and waits for it; it is safe to call
// more than once, and the recorded samples stay readable.
func (r *refClock) stop() {
	select {
	case <-r.quit:
	default:
		close(r.quit)
	}
	<-r.done
}

// refWindow is one stretch of measured work: raw is its time (a set-up, a
// step, the median of a handful of requests) and [from, to] the stretch of
// the refClock it is normalised against, which includes the bursts run
// around the work. own says the work ran on the measuring goroutine itself:
// such a window is normalised against the burst pieces alone, because the
// sampler may sit on the other vCPU, whose interference that work does not
// see (ten train_tt runs: spread 0.019 with the bursts alone, 0.046 with
// both, 0.073 with the sampler alone, 0.155 raw). Work done by other
// threads or another process (the pipeline, elrec-serve) takes every piece.
type refWindow struct {
	from, to time.Duration
	raw      float64
	own      bool
}

// normalise returns each window's raw time scaled by refNominal over the
// mean reference piece recorded inside the window; a window that holds no
// sample is dropped. Call it after the measuring is done.
func (r *refClock) normalise(windows []refWindow) []float64 {
	r.mu.Lock()
	samples := append([]refSample(nil), r.samples...)
	r.mu.Unlock()
	// Two goroutines append, so the log is only nearly in time order.
	sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
	out := make([]float64, 0, len(windows))
	for _, w := range windows {
		lo := sort.Search(len(samples), func(i int) bool { return samples[i].at >= w.from })
		var sum time.Duration
		n := 0
		for i := lo; i < len(samples) && samples[i].at <= w.to; i++ {
			if samples[i].burst || !w.own {
				sum += samples[i].dur
				n++
			}
		}
		if n > 0 {
			out = append(out, w.raw*float64(refNominal)*float64(n)/float64(sum))
		}
	}
	return out
}

// rawOf returns the windows' raw times.
func rawOf(windows []refWindow) []float64 {
	out := make([]float64, len(windows))
	for i, w := range windows {
		out[i] = w.raw
	}
	return out
}
