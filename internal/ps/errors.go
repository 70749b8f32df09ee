package ps

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/faults"
)

// Typed errors of the pipeline trainer. Callers distinguish the failing
// stage with errors.Is; the concrete cause (an injected fault, a recovered
// panic, an I/O error from a checkpoint write) stays on the wrap chain.
var (
	// ErrInvalidConfig reports a malformed pipeline configuration or table
	// placement.
	ErrInvalidConfig = errors.New("ps: invalid config")

	// ErrGatherFailed reports a parameter-server gather that failed after
	// exhausting its retries. Training state is consistent: the failed
	// batch never reached the worker.
	ErrGatherFailed = errors.New("ps: gather failed")

	// ErrApplyFailed reports a gradient apply that failed after exhausting
	// its retries. The worker has already trained on batches whose host
	// updates were lost, so state is NOT resumable in place — restore from
	// a checkpoint.
	ErrApplyFailed = errors.New("ps: apply failed")

	// ErrWorkerFault reports a worker-side failure (a recovered panic)
	// during a training step.
	ErrWorkerFault = errors.New("ps: worker fault")

	// ErrAdapterMisuse reports a host-table adapter invariant violation:
	// an update outside a pipeline step, or a step that never delivered
	// the adapter its gradient.
	ErrAdapterMisuse = errors.New("ps: host adapter misuse")

	// ErrCheckpointFailed reports a periodic checkpoint write failure.
	ErrCheckpointFailed = errors.New("ps: checkpoint failed")

	// ErrPipelineFault reports a panic recovered at the root of a pipeline
	// goroutine — outside the per-operation recover boundaries of
	// gatherBatch/applyPush/trainOne. State is not resumable in place.
	ErrPipelineFault = errors.New("ps: pipeline goroutine fault")

	// ErrStoreUnavailable reports that a host table's backing store (e.g. a
	// remote parameter-server shard) could not serve a synchronous lookup
	// outside a pipeline step.
	ErrStoreUnavailable = errors.New("ps: host store unavailable")

	// ErrLookaheadMiss reports a broken lookahead invariant: a batch asked
	// the cache for a row the window plan pinned, but the entry was absent.
	// The plan only pins rows published by an earlier batch of the same
	// window and Cache.Sync never evicts an entry before its promised use,
	// so this indicates a planner or cache bug, not a recoverable condition.
	ErrLookaheadMiss = errors.New("ps: lookahead pinned row missing from cache")
)

// PanicError carries a panic recovered in a pipeline goroutine, converted
// to an error so a worker or server fault surfaces from Train instead of
// deadlocking the queues.
type PanicError struct {
	Value any    // the recovered value
	Stack []byte // stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("ps: recovered panic: %v", e.Value)
}

// Unwrap exposes the panic value's error chain when the panic carried an
// error (the adapter invariants panic with typed errors).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoveredErr converts a recovered panic value into an error. Injected
// faults travel as panics through the worker path on purpose (to exercise
// this machinery) and come back out as themselves; anything else is wrapped
// in a PanicError with the stack preserved.
func recoveredErr(r any) error {
	if err, ok := r.(error); ok && errors.Is(err, faults.ErrInjected) {
		return err
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}
