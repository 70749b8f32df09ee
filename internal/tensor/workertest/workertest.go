// Package workertest runs a test body at the two worker counts the
// zero-allocation contract is asserted at: one executor, where
// tensor.ParallelFor runs its body inline, and the host's width (at least
// two), where it dispatches the chunks over the worker pool.
package workertest

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// Each runs f with tensor.SetMaxWorkers(1) and then with
// max(2, runtime.NumCPU()), restoring the previous bound when t ends.
func Each(t testing.TB, f func(workers int)) {
	t.Helper()
	old := tensor.Workers()
	t.Cleanup(func() { tensor.SetMaxWorkers(old) })
	for _, workers := range []int{1, max(2, runtime.NumCPU())} {
		tensor.SetMaxWorkers(workers)
		f(workers)
	}
}
