package distps

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/codec"
)

// Message payload formats. Every payload is a flat little-endian record
// built with internal/codec's cursors; the frame layer (wire.go) already
// guarantees integrity (checksum) and bounds (max payload), so decoders
// here only validate structure. done wraps a structural mismatch in
// errBadFrame: it means wire-version skew or a corrupted peer, and the
// connection is not trustworthy afterwards.

// TableSpec identifies one host-placed (overflow) embedding table by its
// model position and cardinality. Workers and shards must agree on the
// exact spec list — it determines both row ownership (the consistent-hash
// key space) and the deterministic initialization stream.
type TableSpec struct {
	Index int // model table position (drives the init RNG seed)
	Rows  int
}

// done is a payload decode's verdict: the cursor's first error, trailing
// bytes included, as errBadFrame.
func done(d *codec.Dec) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %w", errBadFrame, err)
	}
	return nil
}

// --- hello -----------------------------------------------------------------

// helloMsg opens a connection: it carries the worker's identity, its lease
// epoch (0 for a read-only observer), and the full table spec so the shard
// can reject a mis-configured peer before any data flows.
type helloMsg struct {
	WorkerID uint64
	Epoch    uint64
	Seed     uint64
	Dim      int
	Tables   []TableSpec
}

func (m helloMsg) encode() []byte {
	var e codec.Enc
	e.U64(m.WorkerID)
	e.U64(m.Epoch)
	e.U64(m.Seed)
	e.U32(uint32(m.Dim))
	e.U32(uint32(len(m.Tables)))
	for _, t := range m.Tables {
		e.U32(uint32(t.Index))
		e.U64(uint64(t.Rows))
	}
	return e.Buf
}

func decodeHello(b []byte) (helloMsg, error) {
	d := codec.NewDec(b)
	m := helloMsg{WorkerID: d.U64(), Epoch: d.U64(), Seed: d.U64(), Dim: int(d.U32())}
	n := d.Count(12) // a u32 and a u64
	if d.Err() == nil {
		m.Tables = make([]TableSpec, n)
		for i := range m.Tables {
			m.Tables[i] = TableSpec{Index: int(d.U32()), Rows: int(int64(d.U64()))}
		}
	}
	return m, done(d)
}

// helloAck names the shard the connection reached, so a client that dialed
// the wrong address (or a differently sized cluster) fails before any data
// flows.
type helloAck struct {
	ShardID   int
	NumShards int
}

func (m helloAck) encode() []byte {
	var e codec.Enc
	e.U32(uint32(m.ShardID))
	e.U32(uint32(m.NumShards))
	return e.Buf
}

func decodeHelloAck(b []byte) (helloAck, error) {
	d := codec.NewDec(b)
	m := helloAck{ShardID: int(d.U32()), NumShards: int(d.U32())}
	return m, done(d)
}

// --- gather / rows ---------------------------------------------------------

// gatherMsg requests the current values of the listed rows of one table.
// Gathers carry no epoch and are never fenced: a stale reader corrupts
// nothing (its pushes are fenced), and leaving reads open lets observers
// hash final state without holding the trainer lease.
type gatherMsg struct {
	Table int
	Rows  []int
}

func (m gatherMsg) encode() []byte {
	var e codec.Enc
	e.U32(uint32(m.Table))
	e.Ints(m.Rows)
	return e.Buf
}

func decodeGather(b []byte) (gatherMsg, error) {
	d := codec.NewDec(b)
	m := gatherMsg{Table: int(d.U32()), Rows: d.Ints()}
	return m, done(d)
}

type rowsMsg struct {
	Dim    int
	Values []float32 // len(request rows) × Dim, row-major
}

func (m rowsMsg) encode() []byte {
	var e codec.Enc
	e.U32(uint32(m.Dim))
	e.U32(uint32(len(m.Values)))
	e.F32s(m.Values)
	return e.Buf
}

func decodeRows(b []byte) (rowsMsg, error) {
	d := codec.NewDec(b)
	m := rowsMsg{Dim: int(d.U32())}
	m.Values = d.F32s(d.Count(4))
	return m, done(d)
}

// --- push ------------------------------------------------------------------

// pushMsg applies a pre-scaled gradient delta to the listed rows. Seq is
// the worker's monotone push sequence number: the shard applies a push
// exactly once (Seq greater than the last applied for that worker) and
// acks duplicates without reapplying, which is what makes transport-level
// retries safe.
type pushMsg struct {
	Epoch uint64
	Seq   uint64
	Table int
	Rows  []int
	Dim   int
	Delta []float32 // len(Rows) × Dim
}

func (m pushMsg) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.U64(m.Seq)
	e.U32(uint32(m.Table))
	e.Ints(m.Rows)
	e.U32(uint32(m.Dim))
	e.F32s(m.Delta)
	return e.Buf
}

func decodePush(b []byte) (pushMsg, error) {
	d := codec.NewDec(b)
	m := pushMsg{Epoch: d.U64(), Seq: d.U64(), Table: int(d.U32()), Rows: d.Ints(), Dim: int(d.U32())}
	m.Delta = d.F32s(len(m.Rows) * m.Dim)
	return m, done(d)
}

type pushAck struct {
	Applied bool // false: duplicate, already applied earlier
}

func (m pushAck) encode() []byte {
	var e codec.Enc
	e.Bool(m.Applied)
	return e.Buf
}

func decodePushAck(b []byte) (pushAck, error) {
	d := codec.NewDec(b)
	m := pushAck{Applied: d.Bool()}
	return m, done(d)
}

// --- checkpoint / restore --------------------------------------------------

type versionMsg struct {
	Epoch   uint64
	Version int64
}

func (m versionMsg) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.I64(m.Version)
	return e.Buf
}

func decodeVersion(b []byte) (versionMsg, error) {
	d := codec.NewDec(b)
	m := versionMsg{Epoch: d.U64(), Version: d.I64()}
	return m, done(d)
}

type versionAck struct {
	Version int64
}

func (m versionAck) encode() []byte {
	var e codec.Enc
	e.I64(m.Version)
	return e.Buf
}

func decodeVersionAck(b []byte) (versionAck, error) {
	d := codec.NewDec(b)
	m := versionAck{Version: d.I64()}
	return m, done(d)
}

// --- stats -----------------------------------------------------------------

// statsMsg asks a shard for its observability state: metrics snapshot plus
// up to MaxSpans most-recent completed spans. Stats is read-only and never
// fenced or gated on restore, so a recovering or draining shard can still
// be inspected — exactly when inspection matters most.
type statsMsg struct {
	MaxSpans int
}

func (m statsMsg) encode() []byte {
	var e codec.Enc
	e.U32(uint32(m.MaxSpans))
	return e.Buf
}

func decodeStats(b []byte) (statsMsg, error) {
	d := codec.NewDec(b)
	m := statsMsg{MaxSpans: int(d.U32())}
	return m, done(d)
}

// statsAck is a shard's observability snapshot. MetricsJSON is the shard
// registry's Snapshot in its canonical sorted-JSON form (the same bytes
// the shard's own /metrics endpoint serves); spans are relative to
// EpochUnixNanos on the shard's clock, and NowUnixNanos, the shard's clock
// when the ack was built, is the caller's clock-offset sample (Client.Stats).
// Threads maps span TIDs to lane names.
type statsAck struct {
	ShardID        int
	NowUnixNanos   int64
	EpochUnixNanos int64
	Dropped        int64
	MetricsJSON    string
	Threads        map[int]string
	Spans          []spanRec
}

// spanRec is the wire form of one obs.Span.
type spanRec struct {
	Name   string
	Cat    string
	TID    int
	Start  int64 // nanoseconds from the shard tracer's epoch
	Dur    int64
	Trace  uint64
	ID     uint64
	Parent uint64
}

func (m statsAck) encode() []byte {
	var e codec.Enc
	e.U32(uint32(m.ShardID))
	e.I64(m.NowUnixNanos)
	e.I64(m.EpochUnixNanos)
	e.I64(m.Dropped)
	e.Str(m.MetricsJSON)
	tids := make([]int, 0, len(m.Threads))
	for tid := range m.Threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	e.U32(uint32(len(tids)))
	for _, tid := range tids {
		e.U32(uint32(tid))
		e.Str(m.Threads[tid])
	}
	e.U32(uint32(len(m.Spans)))
	for _, s := range m.Spans {
		e.Str(s.Name)
		e.Str(s.Cat)
		e.U32(uint32(s.TID))
		e.I64(s.Start)
		e.I64(s.Dur)
		e.U64(s.Trace)
		e.U64(s.ID)
		e.U64(s.Parent)
	}
	return e.Buf
}

func decodeStatsAck(b []byte) (statsAck, error) {
	d := codec.NewDec(b)
	m := statsAck{ShardID: int(d.U32()), NowUnixNanos: d.I64(), EpochUnixNanos: d.I64(),
		Dropped: d.I64(), MetricsJSON: d.Str()}
	nThreads := d.Count(8) // a u32 and a string
	if d.Err() == nil && nThreads > 0 {
		m.Threads = make(map[int]string, nThreads)
		for i := 0; i < nThreads; i++ {
			tid := int(d.U32())
			m.Threads[tid] = d.Str()
		}
	}
	nSpans := d.Count(52) // two strings (≥ 4 bytes each), a u32, five 64-bit fields
	if d.Err() == nil {
		m.Spans = make([]spanRec, nSpans)
		for i := range m.Spans {
			m.Spans[i] = spanRec{Name: d.Str(), Cat: d.Str(), TID: int(d.U32()),
				Start: d.I64(), Dur: d.I64(), Trace: d.U64(), ID: d.U64(), Parent: d.U64()}
		}
	}
	return m, done(d)
}

// --- lease -----------------------------------------------------------------

// leaseMsg acquires or renews the trainer lease on the lease-authority
// shard (shard 0). Acquire succeeds when the lease is free, expired, or
// already held by this worker, and always grants a fresh (higher) epoch;
// renew extends an unexpired lease this worker holds without changing the
// epoch.
type leaseMsg struct {
	WorkerID uint64
	Renew    bool
	Epoch    uint64 // current epoch, for renew
	TTLMS    uint64
}

func (m leaseMsg) encode() []byte {
	var e codec.Enc
	e.U64(m.WorkerID)
	e.Bool(m.Renew)
	e.U64(m.Epoch)
	e.U64(m.TTLMS)
	return e.Buf
}

func decodeLease(b []byte) (leaseMsg, error) {
	d := codec.NewDec(b)
	m := leaseMsg{WorkerID: d.U64(), Renew: d.Bool(), Epoch: d.U64(), TTLMS: d.U64()}
	return m, done(d)
}

type leaseAck struct {
	Epoch uint64
}

func (m leaseAck) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	return e.Buf
}

func decodeLeaseAck(b []byte) (leaseAck, error) {
	d := codec.NewDec(b)
	m := leaseAck{Epoch: d.U64()}
	return m, done(d)
}

// --- error -----------------------------------------------------------------

// Error codes carried by msgError frames, mapped 1:1 to the package's
// sentinel errors so a typed error survives the wire round trip.
const (
	codeFenced       = uint8(1)
	codeLeaseHeld    = uint8(2)
	codeNotRestored  = uint8(3)
	codeNoCheckpoint = uint8(4)
	codeSpecMismatch = uint8(5)
	codeDraining     = uint8(6)
	codeBadRequest   = uint8(7)
	codeInternal     = uint8(8)
)

type errMsg struct {
	Code uint8
	Msg  string
}

func (m errMsg) encode() []byte {
	var e codec.Enc
	e.U8(m.Code)
	e.Str(m.Msg)
	return e.Buf
}

func decodeErr(b []byte) (errMsg, error) {
	d := codec.NewDec(b)
	m := errMsg{Code: d.U8(), Msg: d.Str()}
	return m, done(d)
}

// sentinelFor maps a wire error code back to the package sentinel.
func sentinelFor(code uint8) error {
	switch code {
	case codeFenced:
		return errFenced
	case codeLeaseHeld:
		return errLeaseHeld
	case codeNotRestored:
		return errNotRestored
	case codeNoCheckpoint:
		return errNoCheckpoint
	case codeSpecMismatch:
		return errSpecMismatch
	case codeDraining:
		return errDraining
	case codeBadRequest:
		return errBadRequest
	}
	return errInternal
}

// codeFor maps a shard-side sentinel to its wire code.
func codeFor(err error) uint8 {
	switch {
	case errors.Is(err, errFenced):
		return codeFenced
	case errors.Is(err, errLeaseHeld):
		return codeLeaseHeld
	case errors.Is(err, errNotRestored):
		return codeNotRestored
	case errors.Is(err, errNoCheckpoint):
		return codeNoCheckpoint
	case errors.Is(err, errSpecMismatch):
		return codeSpecMismatch
	case errors.Is(err, errDraining):
		return codeDraining
	case errors.Is(err, errBadRequest):
		return codeBadRequest
	}
	return codeInternal
}
