// Package obs is the unified observability layer: a metrics registry
// (counters, gauges, histograms with snapshot/reset), span-based tracing
// that exports Chrome trace-event JSON, a leveled key=value logger, and an
// optional HTTP debug endpoint serving /metrics, /trace and pprof.
//
// Two rules keep instrumentation determinism-safe and near-zero-cost:
//
//   - Every wall-clock read outside this package and the command binaries
//     goes through a Clock (the obsclock analyzer enforces it), so numeric
//     packages stay free of direct time.Now/time.Since calls. Most read
//     System(); the tracer, the logger, served.Options and
//     dlrm.Model.SetClock take an injected one, so tests can drive their
//     timing with a Manual clock.
//
//   - Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
//     *Histogram, *Tracer or *Logger are no-ops, so instrumented hot paths
//     cost a nil check when no registry or tracer is attached.
package obs

import (
	"sync"
	"time"
)

// Clock supplies the time base for duration measurements. Production code
// uses System; tests inject a Manual clock to make timing deterministic.
type Clock interface {
	Now() time.Time
}

// System returns the process wall clock (time.Now, which carries the
// monotonic reading, so subtraction yields true elapsed time).
func System() Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// OrSystem returns c, or the system clock when c is nil — the standard
// default for packages holding an optional injected clock.
func OrSystem(c Clock) Clock {
	if c == nil {
		return System()
	}
	return c
}

// Since returns the elapsed time on c since t (OrSystem semantics for a
// nil c).
func Since(c Clock, t time.Time) time.Duration {
	return OrSystem(c).Now().Sub(t)
}

// Manual is a hand-advanced clock for tests. The zero value starts at the
// zero time; it is safe for concurrent use.
type Manual struct {
	mu sync.Mutex
	t  time.Time // guarded by mu
}

// NewManual returns a manual clock starting at start.
func NewManual(start time.Time) *Manual {
	m := &Manual{}
	m.mu.Lock()
	m.t = start
	m.mu.Unlock()
	return m
}

// Now returns the clock's current reading.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// Advance moves the clock forward by d and returns the new reading.
func (m *Manual) Advance(d time.Duration) time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.t = m.t.Add(d)
	return m.t
}
