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
	// errInvalidConfig reports a malformed pipeline configuration or table
	// placement.
	errInvalidConfig = errors.New("ps: invalid config")

	// errGatherFailed reports a parameter-server gather that failed after
	// exhausting its retries. Training state is consistent: the failed
	// batch never reached the worker.
	errGatherFailed = errors.New("ps: gather failed")

	// errApplyFailed reports a gradient apply that failed after exhausting
	// its retries. The worker has already trained on batches whose host
	// updates were lost, so state is NOT resumable in place — restore from
	// a checkpoint.
	errApplyFailed = errors.New("ps: apply failed")

	// errWorkerFault reports a worker-side failure (a recovered panic)
	// during a training step.
	errWorkerFault = errors.New("ps: worker fault")

	// errAdapterMisuse reports a host-table adapter invariant violation:
	// an update outside a pipeline step, or a step that never delivered
	// the adapter its gradient.
	errAdapterMisuse = errors.New("ps: host adapter misuse")

	// errCheckpointFailed reports a periodic checkpoint write failure.
	errCheckpointFailed = errors.New("ps: checkpoint failed")

	// errPipelineFault reports a panic recovered at the root of a pipeline
	// goroutine — outside the per-operation recover boundaries of
	// gatherBatch/applyPush/trainOne. State is not resumable in place.
	errPipelineFault = errors.New("ps: pipeline goroutine fault")

	// errStoreUnavailable reports that a host table's backing store (e.g. a
	// remote parameter-server shard) could not serve a synchronous lookup
	// outside a pipeline step.
	errStoreUnavailable = errors.New("ps: host store unavailable")

	// errLookaheadMiss reports a broken lookahead invariant: a batch asked
	// the cache for a row the window plan pinned, but the entry was absent.
	// The plan only pins rows published by an earlier batch of the same
	// window and cache.sync never evicts an entry before its promised use,
	// so this indicates a planner or cache bug, not a recoverable condition.
	errLookaheadMiss = errors.New("ps: lookahead pinned row missing from cache")
)

// panicError carries a panic recovered in a pipeline goroutine, converted
// to an error so a worker or server fault surfaces from Train instead of
// deadlocking the queues.
type panicError struct {
	Value any    // the recovered value
	Stack []byte // stack at recovery
}

func (e *panicError) Error() string {
	return fmt.Sprintf("ps: recovered panic: %v", e.Value)
}

// Unwrap exposes the panic value's error chain when the panic carried an
// error (the adapter invariants panic with typed errors).
func (e *panicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoveredErr converts a recovered panic value into an error. Injected
// faults travel as panics through the worker path on purpose (to exercise
// this machinery) and come back out as themselves; anything else is wrapped
// in a panicError with the stack preserved.
func recoveredErr(r any) error {
	if err, ok := r.(error); ok && errors.Is(err, faults.ErrInjected) {
		return err
	}
	return &panicError{Value: r, Stack: debug.Stack()}
}
