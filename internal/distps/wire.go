package distps

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
)

// Frame layout (all little-endian):
//
//	offset size field
//	0      4    magic     0xE17D15F5
//	4      1    version   wire protocol version (3)
//	5      1    type      message type (msg* constants)
//	6      4    length    payload byte count
//	10     8    reqID     request id (responses echo the request's)
//	18     8    trace     trace id (0 = untraced; responses echo it)
//	26     8    span      caller span id (0 = untraced; responses echo it)
//	34     4    checksum  FNV-1a 32 of the payload
//	38     n    payload
//
// Version 2 grew the trace/span fields: every request carries the caller's
// trace context in the header so a shard-side handler span can link under
// the worker-side RPC span in a merged Chrome trace, and responses echo
// both ids back. Carrying them in the header (not the payload) keeps
// propagation uniform across all message types, including msgError.
// Version 3 dropped the liveness-probe pair (types 11 and 12) and
// renumbered the types after it, so a peer of another version fails at
// the header, not at a mis-typed payload.
//
// The checksum turns a corrupted-in-flight payload into a typed
// errBadFrame instead of a silent mis-decode; a truncated frame surfaces
// as errBadFrame via io.ErrUnexpectedEOF. Either way the connection is
// poisoned and the caller retries on a fresh one.
const (
	frameMagic  = uint32(0xE17D15F5)
	wireVersion = uint8(3)
	headerSize  = 38

	// defaultMaxPayload bounds a single frame's payload; larger gathers
	// and pushes must be split by the caller (the client chunks by rows).
	defaultMaxPayload = 64 << 20
)

// Message types. Requests are odd, their success responses follow at the
// next value (ackFor); msgError answers any request. msgTypes is one past
// the last type: it sizes the rpcs table.
const (
	msgHello         = uint8(1)
	msgHelloAck      = uint8(2)
	msgGather        = uint8(3)
	msgRows          = uint8(4)
	msgPush          = uint8(5)
	msgPushAck       = uint8(6)
	msgCheckpoint    = uint8(7)
	msgCheckpointAck = uint8(8)
	msgRestore       = uint8(9)
	msgRestoreAck    = uint8(10)
	msgLease         = uint8(11)
	msgLeaseAck      = uint8(12)
	msgError         = uint8(13)
	msgStats         = uint8(15)
	msgStatsAck      = uint8(16)
	msgTypes         = uint8(17)
)

// rpc is one request type's row of the protocol: the name its error text,
// spans and distps_{rpc,srv}_<name>_ns histograms carry, and the shard
// handler that decodes its payload, serves it and encodes the reply.
type rpc struct {
	name  string
	serve func(s *Shard, payload []byte) ([]byte, error)
}

// rpcs is the protocol, one row per request type. The shard dispatches
// through it, msgName reads names from it, and both ends register their
// per-RPC histograms by ranging over it: a new RPC is one constant above
// and one row here.
var rpcs = [msgTypes]rpc{
	msgHello:      newRPC("hello", decodeHello, (*Shard).hello),
	msgGather:     newRPC("gather", decodeGather, (*Shard).gather),
	msgPush:       newRPC("push", decodePush, (*Shard).push),
	msgCheckpoint: newRPC("checkpoint", decodeVersion, (*Shard).checkpointRPC),
	msgRestore:    newRPC("restore", decodeVersion, (*Shard).restoreRPC),
	msgLease:      newRPC("lease", decodeLease, (*Shard).leaseRPC),
	msgStats:      newRPC("stats", decodeStats, (*Shard).statsRPC),
}

// newRPC builds a protocol row from a payload decoder and the shard method
// that serves the decoded request. A payload that does not decode is the
// caller's fault: errBadRequest, naming the RPC.
func newRPC[Req any, Ack interface{ encode() []byte }](name string, decode func([]byte) (Req, error),
	serve func(*Shard, Req) (Ack, error)) rpc {
	return rpc{name: name, serve: func(s *Shard, payload []byte) ([]byte, error) {
		m, err := decode(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", errBadRequest, name, err)
		}
		ack, err := serve(s, m)
		if err != nil {
			return nil, err
		}
		return ack.encode(), nil
	}}
}

// lookup returns request type t's row, if it has one.
func lookup(t uint8) (rpc, bool) {
	if t >= msgTypes || rpcs[t].serve == nil {
		return rpc{}, false
	}
	return rpcs[t], true
}

// ackFor is the type of a request's success response.
func ackFor(req uint8) uint8 { return req + 1 }

// msgName names a message type: a request its row's name, a response its
// request's, msgError "error".
func msgName(t uint8) string {
	if t == msgError {
		return "error"
	}
	req := t
	if t%2 == 0 {
		req = t - 1
	}
	if r, ok := lookup(req); ok {
		return r.name
	}
	return fmt.Sprintf("type-%d", t)
}

// frame is one decoded wire frame. Trace and Span carry the sender's
// trace context (zero when untraced); a response echoes the request's.
type frame struct {
	Type    uint8
	ReqID   uint64
	Trace   uint64
	Span    uint64
	Payload []byte
}

// fnv1a32 is the payload checksum (FNV-1a, 32-bit).
func fnv1a32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// writeFrame encodes f to w in one Write call (the header and payload are
// assembled into a single buffer so a concurrent writer on another frame
// cannot interleave partial frames on the same connection — callers still
// serialize writers per connection, this just keeps the failure mode sane).
func writeFrame(w io.Writer, f frame) error {
	e := codec.Enc{Buf: make([]byte, 0, headerSize+len(f.Payload))}
	e.U32(frameMagic)
	e.U8(wireVersion)
	e.U8(f.Type)
	e.U32(uint32(len(f.Payload)))
	e.U64(f.ReqID)
	e.U64(f.Trace)
	e.U64(f.Span)
	e.U32(fnv1a32(f.Payload))
	_, err := w.Write(append(e.Buf, f.Payload...))
	return err
}

// readFrame decodes one frame from r, rejecting payloads above maxPayload
// (<= 0 uses defaultMaxPayload). Truncation, bad magic, a wire-version
// skew and checksum mismatches all return errors wrapping errBadFrame.
func readFrame(r *bufio.Reader, maxPayload int) (frame, error) {
	if maxPayload <= 0 {
		maxPayload = defaultMaxPayload
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return frame{}, io.EOF // clean close between frames
		}
		return frame{}, fmt.Errorf("%w: truncated header: %w", errBadFrame, err)
	}
	d := codec.NewDec(hdr[:])
	if m := d.U32(); m != frameMagic {
		return frame{}, fmt.Errorf("%w: magic %#x", errBadFrame, m)
	}
	if v := d.U8(); v != wireVersion {
		return frame{}, fmt.Errorf("%w: wire version %d (want %d)", errBadFrame, v, wireVersion)
	}
	f := frame{Type: d.U8()}
	n := int(d.U32())
	if n > maxPayload {
		return frame{}, fmt.Errorf("%w: payload %d exceeds cap %d", errBadFrame, n, maxPayload)
	}
	f.ReqID, f.Trace, f.Span = d.U64(), d.U64(), d.U64()
	sum := d.U32()
	f.Payload = make([]byte, n)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return frame{}, fmt.Errorf("%w: truncated payload: %w", errBadFrame, err)
	}
	if sum != fnv1a32(f.Payload) {
		return frame{}, fmt.Errorf("%w: payload checksum mismatch", errBadFrame)
	}
	return f, nil
}
