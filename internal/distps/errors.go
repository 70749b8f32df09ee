// Package distps takes the parameter server over the wire: the overflow
// (host-placed) embedding tables are consistent-hash sharded across N
// shard servers, and the pipeline trainer's gather/push traffic rides a
// compact length-prefixed binary frame protocol over stdlib TCP.
//
// The package provides four layers:
//
//   - wire.go/msg.go — the frame codec and message formats;
//   - server.go      — the Shard: owned-row storage, idempotent mutating
//     RPCs, epoch fencing, durable versioned checkpoints, lease authority;
//   - client.go      — the Client: per-call deadlines, capped-backoff
//     retries with stable request ids, per-shard liveness gauges, and a
//     ps.HostStore adapter that plugs shards into the pipeline trainer;
//   - worker.go      — the trainer driver: lease-gated active/standby
//     workers, coordinated checkpoints and crash-consistent recovery
//     (kill a shard or the primary; training resumes bit-exact).
//
// See DESIGN.md §14 for the wire format, shard map and recovery state
// machine.
package distps

import "errors"

// Typed errors; callers branch with errors.Is.
var (
	// errBadFrame reports a malformed frame: wrong magic, oversized
	// payload, checksum mismatch, or a truncated read mid-frame.
	errBadFrame = errors.New("distps: bad frame")

	// errRPCFailed reports an RPC that failed after exhausting its
	// retries (connection refused, deadline exceeded, connection killed
	// mid-exchange).
	errRPCFailed = errors.New("distps: rpc failed")

	// errFenced reports a mutating RPC rejected because its lease epoch is
	// older than one the shard has already seen — the caller lost the
	// trainer lease and must stand down (its state may be stale).
	errFenced = errors.New("distps: fenced: stale lease epoch")

	// errLeaseHeld reports a lease acquisition denied because another
	// worker holds an unexpired trainer lease.
	errLeaseHeld = errors.New("distps: trainer lease held by another worker")

	// errNotRestored reports a data RPC against a shard that has not yet
	// materialized its tables (no Restore received since it started).
	errNotRestored = errors.New("distps: shard not restored")

	// errNoCheckpoint reports a Restore for a version the shard has no
	// durable checkpoint file for.
	errNoCheckpoint = errors.New("distps: no checkpoint for requested version")

	// errSpecMismatch reports a Hello whose table spec disagrees with the
	// state the shard already holds.
	errSpecMismatch = errors.New("distps: worker/shard spec mismatch")

	// errDraining reports an RPC rejected because the shard is shutting
	// down gracefully.
	errDraining = errors.New("distps: shard draining")

	// errBadRequest reports a structurally invalid request (unknown table,
	// row not owned by the shard, shape mismatch).
	errBadRequest = errors.New("distps: bad request")

	// errInternal reports a recovered panic or invariant violation inside
	// the transport machinery.
	errInternal = errors.New("distps: internal fault")
)
