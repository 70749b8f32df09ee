package distps

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Message payload formats. Every payload is a flat little-endian record
// built with the enc/dec cursors below; the frame layer (wire.go) already
// guarantees integrity (checksum) and bounds (max payload), so decoders
// here only validate structure. A structural mismatch wraps ErrBadFrame:
// it means wire-version skew or a corrupted peer, and the connection is
// not trustworthy afterwards.

// TableSpec identifies one host-placed (overflow) embedding table by its
// model position and cardinality. Workers and shards must agree on the
// exact spec list — it determines both row ownership (the consistent-hash
// key space) and the deterministic initialization stream.
type TableSpec struct {
	Index int // model table position (drives the init RNG seed)
	Rows  int
}

// sanityCap bounds decoded element counts so a structurally corrupt count
// cannot drive a huge allocation before the payload-length check catches it.
const sanityCap = 1 << 28

// --- cursor helpers --------------------------------------------------------

type enc struct{ buf []byte }

func (e *enc) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
		return
	}
	e.u8(0)
}
func (e *enc) u32(v uint32) { e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *enc) u64(v uint64) {
	e.u32(uint32(v))
	e.u32(uint32(v >> 32))
}
func (e *enc) i64(v int64) { e.u64(uint64(v)) }
func (e *enc) f32s(v []float32) {
	for _, f := range v {
		e.u32(math.Float32bits(f))
	}
}
func (e *enc) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u64(uint64(int64(x)))
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated payload record", ErrBadFrame)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64() uint64 {
	lo := d.u32()
	hi := d.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) count() int {
	n := int(d.u32())
	if n < 0 || n > sanityCap {
		if d.err == nil {
			d.err = fmt.Errorf("%w: element count %d out of range", ErrBadFrame, n)
		}
		return 0
	}
	return n
}

func (d *dec) f32s(n int) []float32 {
	if d.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.u32())
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *dec) ints() []int {
	n := d.count()
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(d.u64()))
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *dec) str() string {
	n := d.count()
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// done returns the accumulated decode error, also rejecting trailing bytes.
func (d *dec) done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(d.buf)-d.off)
	}
	return d.err
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
	var e enc
	e.u64(m.WorkerID)
	e.u64(m.Epoch)
	e.u64(m.Seed)
	e.u32(uint32(m.Dim))
	e.u32(uint32(len(m.Tables)))
	for _, t := range m.Tables {
		e.u32(uint32(t.Index))
		e.u64(uint64(t.Rows))
	}
	return e.buf
}

func decodeHello(b []byte) (helloMsg, error) {
	d := dec{buf: b}
	m := helloMsg{WorkerID: d.u64(), Epoch: d.u64(), Seed: d.u64(), Dim: int(d.u32())}
	n := d.count()
	if d.err == nil {
		m.Tables = make([]TableSpec, n)
		for i := range m.Tables {
			m.Tables[i] = TableSpec{Index: int(d.u32()), Rows: int(int64(d.u64()))}
		}
	}
	return m, d.done()
}

type helloAck struct {
	ShardID   int
	NumShards int
	Version   int64 // latest durable checkpoint version
	Restored  bool
	Epoch     uint64 // highest lease epoch the shard has seen
}

func (m helloAck) encode() []byte {
	var e enc
	e.u32(uint32(m.ShardID))
	e.u32(uint32(m.NumShards))
	e.i64(m.Version)
	e.bool(m.Restored)
	e.u64(m.Epoch)
	return e.buf
}

func decodeHelloAck(b []byte) (helloAck, error) {
	d := dec{buf: b}
	m := helloAck{ShardID: int(d.u32()), NumShards: int(d.u32()), Version: d.i64(),
		Restored: d.bool(), Epoch: d.u64()}
	return m, d.done()
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
	var e enc
	e.u32(uint32(m.Table))
	e.ints(m.Rows)
	return e.buf
}

func decodeGather(b []byte) (gatherMsg, error) {
	d := dec{buf: b}
	m := gatherMsg{Table: int(d.u32()), Rows: d.ints()}
	return m, d.done()
}

type rowsMsg struct {
	Dim    int
	Values []float32 // len(request rows) × Dim, row-major
}

func (m rowsMsg) encode() []byte {
	var e enc
	e.u32(uint32(m.Dim))
	e.u32(uint32(len(m.Values)))
	e.f32s(m.Values)
	return e.buf
}

func decodeRows(b []byte) (rowsMsg, error) {
	d := dec{buf: b}
	m := rowsMsg{Dim: int(d.u32())}
	m.Values = d.f32s(d.count())
	return m, d.done()
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
	var e enc
	e.u64(m.Epoch)
	e.u64(m.Seq)
	e.u32(uint32(m.Table))
	e.ints(m.Rows)
	e.u32(uint32(m.Dim))
	e.f32s(m.Delta)
	return e.buf
}

func decodePush(b []byte) (pushMsg, error) {
	d := dec{buf: b}
	m := pushMsg{Epoch: d.u64(), Seq: d.u64(), Table: int(d.u32()), Rows: d.ints(), Dim: int(d.u32())}
	m.Delta = d.f32s(len(m.Rows) * m.Dim)
	return m, d.done()
}

type pushAck struct {
	Applied bool // false: duplicate, already applied earlier
}

func (m pushAck) encode() []byte {
	var e enc
	e.bool(m.Applied)
	return e.buf
}

func decodePushAck(b []byte) (pushAck, error) {
	d := dec{buf: b}
	m := pushAck{Applied: d.bool()}
	return m, d.done()
}

// --- checkpoint / restore --------------------------------------------------

type versionMsg struct {
	Epoch   uint64
	Version int64
}

func (m versionMsg) encode() []byte {
	var e enc
	e.u64(m.Epoch)
	e.i64(m.Version)
	return e.buf
}

func decodeVersion(b []byte) (versionMsg, error) {
	d := dec{buf: b}
	m := versionMsg{Epoch: d.u64(), Version: d.i64()}
	return m, d.done()
}

type versionAck struct {
	Version int64
}

func (m versionAck) encode() []byte {
	var e enc
	e.i64(m.Version)
	return e.buf
}

func decodeVersionAck(b []byte) (versionAck, error) {
	d := dec{buf: b}
	m := versionAck{Version: d.i64()}
	return m, d.done()
}

// --- heartbeat -------------------------------------------------------------

// heartbeatMsg carries the sender's wall-clock send instant so the ack can
// be used for NTP-style clock-offset estimation: the client combines its
// own send/receive instants with the shard's NowUnixNanos to place the
// shard's timeline on the worker's clock when merging traces.
type heartbeatMsg struct {
	WorkerID      uint64
	SendUnixNanos int64
}

func (m heartbeatMsg) encode() []byte {
	var e enc
	e.u64(m.WorkerID)
	e.i64(m.SendUnixNanos)
	return e.buf
}

func decodeHeartbeat(b []byte) (heartbeatMsg, error) {
	d := dec{buf: b}
	m := heartbeatMsg{WorkerID: d.u64(), SendUnixNanos: d.i64()}
	return m, d.done()
}

type heartbeatAck struct {
	Version      int64
	Restored     bool
	Draining     bool
	Epoch        uint64
	NowUnixNanos int64 // shard wall clock when the ack was built
}

func (m heartbeatAck) encode() []byte {
	var e enc
	e.i64(m.Version)
	e.bool(m.Restored)
	e.bool(m.Draining)
	e.u64(m.Epoch)
	e.i64(m.NowUnixNanos)
	return e.buf
}

func decodeHeartbeatAck(b []byte) (heartbeatAck, error) {
	d := dec{buf: b}
	m := heartbeatAck{Version: d.i64(), Restored: d.bool(), Draining: d.bool(), Epoch: d.u64(),
		NowUnixNanos: d.i64()}
	return m, d.done()
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
	var e enc
	e.u32(uint32(m.MaxSpans))
	return e.buf
}

func decodeStats(b []byte) (statsMsg, error) {
	d := dec{buf: b}
	m := statsMsg{MaxSpans: int(d.u32())}
	return m, d.done()
}

// statsAck is a shard's observability snapshot. MetricsJSON is the shard
// registry's Snapshot in its canonical sorted-JSON form (the same bytes
// the shard's own /metrics endpoint serves); spans are relative to
// EpochUnixNanos on the shard's clock, and NowUnixNanos lets the caller
// sanity-check offset estimates. Threads maps span TIDs to lane names.
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
	var e enc
	e.u32(uint32(m.ShardID))
	e.i64(m.NowUnixNanos)
	e.i64(m.EpochUnixNanos)
	e.i64(m.Dropped)
	e.str(m.MetricsJSON)
	tids := make([]int, 0, len(m.Threads))
	//elrec:orderless keys are sorted immediately below
	for tid := range m.Threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	e.u32(uint32(len(tids)))
	for _, tid := range tids {
		e.u32(uint32(tid))
		e.str(m.Threads[tid])
	}
	e.u32(uint32(len(m.Spans)))
	for _, s := range m.Spans {
		e.str(s.Name)
		e.str(s.Cat)
		e.u32(uint32(s.TID))
		e.i64(s.Start)
		e.i64(s.Dur)
		e.u64(s.Trace)
		e.u64(s.ID)
		e.u64(s.Parent)
	}
	return e.buf
}

func decodeStatsAck(b []byte) (statsAck, error) {
	d := dec{buf: b}
	m := statsAck{ShardID: int(d.u32()), NowUnixNanos: d.i64(), EpochUnixNanos: d.i64(),
		Dropped: d.i64(), MetricsJSON: d.str()}
	nThreads := d.count()
	if d.err == nil && nThreads > 0 {
		m.Threads = make(map[int]string, nThreads)
		for i := 0; i < nThreads; i++ {
			tid := int(d.u32())
			m.Threads[tid] = d.str()
		}
	}
	nSpans := d.count()
	if d.err == nil {
		m.Spans = make([]spanRec, nSpans)
		for i := range m.Spans {
			m.Spans[i] = spanRec{Name: d.str(), Cat: d.str(), TID: int(d.u32()),
				Start: d.i64(), Dur: d.i64(), Trace: d.u64(), ID: d.u64(), Parent: d.u64()}
		}
	}
	return m, d.done()
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
	var e enc
	e.u64(m.WorkerID)
	e.bool(m.Renew)
	e.u64(m.Epoch)
	e.u64(m.TTLMS)
	return e.buf
}

func decodeLease(b []byte) (leaseMsg, error) {
	d := dec{buf: b}
	m := leaseMsg{WorkerID: d.u64(), Renew: d.bool(), Epoch: d.u64(), TTLMS: d.u64()}
	return m, d.done()
}

type leaseAck struct {
	Epoch uint64
}

func (m leaseAck) encode() []byte {
	var e enc
	e.u64(m.Epoch)
	return e.buf
}

func decodeLeaseAck(b []byte) (leaseAck, error) {
	d := dec{buf: b}
	m := leaseAck{Epoch: d.u64()}
	return m, d.done()
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
	var e enc
	e.u8(m.Code)
	e.str(m.Msg)
	return e.buf
}

func decodeErr(b []byte) (errMsg, error) {
	d := dec{buf: b}
	m := errMsg{Code: d.u8(), Msg: d.str()}
	return m, d.done()
}

// sentinelFor maps a wire error code back to the package sentinel.
func sentinelFor(code uint8) error {
	switch code {
	case codeFenced:
		return ErrFenced
	case codeLeaseHeld:
		return ErrLeaseHeld
	case codeNotRestored:
		return ErrNotRestored
	case codeNoCheckpoint:
		return ErrNoCheckpoint
	case codeSpecMismatch:
		return ErrSpecMismatch
	case codeDraining:
		return ErrDraining
	case codeBadRequest:
		return ErrBadRequest
	}
	return ErrInternal
}

// codeFor maps a shard-side sentinel to its wire code.
func codeFor(err error) uint8 {
	switch {
	case errors.Is(err, ErrFenced):
		return codeFenced
	case errors.Is(err, ErrLeaseHeld):
		return codeLeaseHeld
	case errors.Is(err, ErrNotRestored):
		return codeNotRestored
	case errors.Is(err, ErrNoCheckpoint):
		return codeNoCheckpoint
	case errors.Is(err, ErrSpecMismatch):
		return codeSpecMismatch
	case errors.Is(err, ErrDraining):
		return codeDraining
	case errors.Is(err, ErrBadRequest):
		return codeBadRequest
	}
	return codeInternal
}

// msgName names a message type for error text.
func msgName(t uint8) string {
	//elrec:wireswitch all
	switch t {
	case msgHello, msgHelloAck:
		return "hello"
	case msgGather, msgRows:
		return "gather"
	case msgPush, msgPushAck:
		return "push"
	case msgCheckpoint, msgCheckpointAck:
		return "checkpoint"
	case msgRestore, msgRestoreAck:
		return "restore"
	case msgHeartbeat, msgHeartbeatAck:
		return "heartbeat"
	case msgLease, msgLeaseAck:
		return "lease"
	case msgStats, msgStatsAck:
		return "stats"
	case msgError:
		return "error"
	}
	return fmt.Sprintf("type-%d", t)
}
