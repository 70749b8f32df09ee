// Package faults is the deterministic fault-injection layer of the
// pipeline trainer. Production code runs with a nil injector, which injects
// nothing and costs one nil check per operation; tests construct a Seeded
// injector that decides — as a pure function of (seed, operation, iteration,
// attempt) — whether a parameter-server gather or apply transiently fails,
// whether the server stalls, and whether the worker panics. Because the
// decision does not depend on goroutine interleaving, a faulty run is
// exactly reproducible, which is what lets the ps tests assert bit-exact
// convergence under injected failures.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/tensor"
)

// Op names an injection point inside the pipeline.
type Op string

// Injection points.
const (
	// OpGather is the parameter server's pre-fetch gather of host rows.
	OpGather Op = "gather"
	// OpApply is the server-side application of a pushed gradient.
	OpApply Op = "apply"
	// OpWorker is the worker's per-batch training step.
	OpWorker Op = "worker"
)

// ErrInjected is the sentinel every injected fault wraps; the pipeline uses
// it to distinguish injected failures (raised at known-consistent points)
// from genuine faults.
var ErrInjected = errors.New("faults: injected fault")

// transient is an injected, retryable failure of one gather/apply attempt.
type transient struct {
	Op      Op
	Iter    int
	Attempt int
}

func (e *transient) Error() string {
	return fmt.Sprintf("faults: transient %s fault at iter %d (attempt %d)", e.Op, e.Iter, e.Attempt)
}

// Unwrap marks the fault as injected.
func (e *transient) Unwrap() error { return ErrInjected }

// Stall asks the injection site to sleep for D before proceeding — the
// slow-server scenario. It is not a failure: the operation continues after
// the delay.
type Stall struct {
	Op   Op
	Iter int
	D    time.Duration
}

func (e *Stall) Error() string {
	return fmt.Sprintf("faults: %s stall of %v at iter %d", e.Op, e.D, e.Iter)
}

// Unwrap marks the stall as injected.
func (e *Stall) Unwrap() error { return ErrInjected }

// WorkerFault is an injected worker panic. It is raised before the worker
// touches any model state, so training state remains consistent and the
// run is resumable from the reported iteration.
type WorkerFault struct {
	Iter int
}

func (e *WorkerFault) Error() string {
	return fmt.Sprintf("faults: worker panic injected at iter %d", e.Iter)
}

// Unwrap marks the fault as injected.
func (e *WorkerFault) Unwrap() error { return ErrInjected }

// IsInjected reports whether err originates from an injector.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Injector decides, per attempt, whether an operation faults. Fault returns
// nil for success, a *transient (retryable) or *WorkerFault (fatal) to
// fail the attempt, or a *Stall to delay it. Implementations must be safe
// for concurrent use: the pipeline consults the injector from the
// pre-fetcher, server and worker goroutines.
type Injector interface {
	Fault(op Op, iter, attempt int) error
}

// Config parameterizes a Seeded injector. Probabilities are per attempt in
// [0, 1].
type Config struct {
	Seed uint64

	// GatherFailProb / ApplyFailProb make one gather or apply attempt fail
	// transiently; the pipeline retries with backoff.
	GatherFailProb float64
	ApplyFailProb  float64

	// StallProb delays the first attempt of a gather/apply by StallFor
	// (the slow-parameter-server scenario).
	StallProb float64
	StallFor  time.Duration

	// PanicWorker panics the worker at iteration PanicAt (before it
	// touches model state).
	PanicWorker bool
	PanicAt     int

	// MaxFaults caps the total number of injected transient faults
	// (0 = unlimited). Stalls and worker panics do not count.
	MaxFaults int
}

// Seeded is the deterministic injector: every decision is a pure hash of
// (seed, op, iter, attempt), so two runs with the same seed inject exactly
// the same faults regardless of scheduling.
type Seeded struct {
	cfg Config

	mu       sync.Mutex
	injected int // transient faults handed out, for MaxFaults
}

var _ Injector = (*Seeded)(nil)

// NewSeeded builds a deterministic injector from cfg.
func NewSeeded(cfg Config) *Seeded { return &Seeded{cfg: cfg} }

// Injected returns how many transient faults have been handed out.
func (s *Seeded) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Fault implements Injector.
func (s *Seeded) Fault(op Op, iter, attempt int) error {
	if op == OpWorker {
		if s.cfg.PanicWorker && iter == s.cfg.PanicAt {
			return &WorkerFault{Iter: iter}
		}
		return nil
	}
	if attempt == 0 && s.cfg.StallProb > 0 && s.cfg.StallFor > 0 &&
		chance(s.cfg.Seed, op, iter, 0, stallSalt) < s.cfg.StallProb {
		return &Stall{Op: op, Iter: iter, D: s.cfg.StallFor}
	}
	var prob float64
	switch op {
	case OpGather:
		prob = s.cfg.GatherFailProb
	case OpApply:
		prob = s.cfg.ApplyFailProb
	}
	if prob <= 0 || chance(s.cfg.Seed, op, iter, attempt, failSalt) >= prob {
		return nil
	}
	s.mu.Lock()
	capped := s.cfg.MaxFaults > 0 && s.injected >= s.cfg.MaxFaults
	if !capped {
		s.injected++
	}
	s.mu.Unlock()
	if capped {
		return nil
	}
	return &transient{Op: op, Iter: iter, Attempt: attempt}
}

// Salts keep the stall and failure decision streams independent.
const (
	failSalt  = 0x9E3779B97F4A7C15
	stallSalt = 0xC2B2AE3D27D4EB4F
)

// chance hashes the decision coordinates into [0, 1).
func chance(seed uint64, op Op, iter, attempt int, salt uint64) float64 {
	h := seed ^ salt
	for _, c := range []byte(op) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h = tensor.Mix64(h ^ uint64(int64(iter)))
	h = tensor.Mix64(h ^ uint64(int64(attempt))<<32)
	// 53 bits of mantissa.
	return float64(h>>11) / float64(1<<53)
}
