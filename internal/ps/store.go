package ps

import (
	"repro/internal/tensor"
)

// HostStore is the pluggable backing store for one host-placed embedding
// table: the parameter-server side of the pipeline's gather/push contract.
// The default implementation is an in-process bag under a lock (the
// single-machine mode); internal/distps provides a remote implementation
// that consistent-hash shards the rows across PS shard servers over TCP.
//
// Semantics the pipeline relies on:
//
//   - GatherRows gathers into the caller's storage: the current value of
//     row ids[k] lands in dst.Row(at[k]) (dst.Row(k) when at is nil), and
//     no other row of dst is written. The caller owns dst — the pipeline
//     passes its step slab's value matrix, the adapter its evaluation
//     scratch — and the store must not keep it past the call. It may be
//     called concurrently with ApplyDelta; the store serializes internally.
//   - ApplyDelta adds delta (len(uniq)×Dim, already scaled by −lr) into the
//     addressed rows and must be fully applied — and visible to any
//     subsequent GatherRows — before it returns. The pipeline's freshness
//     accounting (hostBatch.gathered vs the applied counter) depends on
//     this happens-before edge.
//   - ApplyDelta must be idempotent-safe at the transport level: if it
//     returns an error the pipeline treats training state as torn
//     (ErrApplyFailed, restore from checkpoint) rather than retrying, so
//     any internal retries must deduplicate their own replays.
type HostStore interface {
	GatherRows(ids, at []int, dst *tensor.Matrix) error
	ApplyDelta(uniq []int, delta *tensor.Matrix) error
	NumRows() int
	Dim() int
}

// localStore serves one host table from process memory: the bag lives in
// pipeline.hostBags[slot] and is guarded by pipeline.hostMu[slot]. This is
// the store NewPipeline builds for a TableLoc with HostRows set.
type localStore struct {
	p    *Pipeline
	slot int
	rows int
	dim  int
}

var _ HostStore = (*localStore)(nil)

// GatherRows reads the requested rows into dst under the table's read lock.
func (s *localStore) GatherRows(ids, at []int, dst *tensor.Matrix) error {
	s.p.hostMu[s.slot].RLock()
	s.p.hostBags[s.slot].GatherRowsInto(dst, ids, at)
	s.p.hostMu[s.slot].RUnlock()
	return nil
}

// ApplyDelta scatters the pre-scaled delta into the table under its write
// lock.
func (s *localStore) ApplyDelta(uniq []int, delta *tensor.Matrix) error {
	s.p.hostMu[s.slot].Lock()
	s.p.hostBags[s.slot].ScatterAdd(uniq, delta)
	s.p.hostMu[s.slot].Unlock()
	return nil
}

// NumRows returns the table's row count.
func (s *localStore) NumRows() int { return s.rows }

// Dim returns the embedding dimension.
func (s *localStore) Dim() int { return s.dim }
